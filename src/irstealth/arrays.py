"""Steering vectors and array responses for the radar- and target-side arrays.

Conventions: directions are parametrized by an azimuth measured in the
array plane from the array x-axis and an elevation measured from that plane
toward the array normal, both in the open interval (-pi/2, pi/2); the
direction cosines along the array axes are cos(el)*cos(az) and
cos(el)*sin(az).  Planar responses are Kronecker products of two 1D
steering vectors (x-axis factor first), so elements are indexed row-major
over (x, y).  :func:`upa_responses` and :func:`cssa_responses` broadcast
over angle arrays; :func:`upa_response` is the one-angle case of the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class ArrayKind(Enum):
    UPA = "upa"
    CSSA = "cssa"


@dataclass(frozen=True)
class ArrayGeometry:
    """Element grid of a planar (UPA) or cross-shaped (CSSA) array.

    ``nx``/``ny`` count elements along the x- and y-axes; a CSSA shares one
    central device between both arms, so its arm lengths must be odd.
    """

    kind: ArrayKind
    nx: int
    ny: int
    spacing: float

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"element counts must be >= 1, got {self.nx}x{self.ny}")
        if self.spacing <= 0:
            raise ValueError(f"element spacing must be positive, got {self.spacing}")
        if self.kind is ArrayKind.CSSA and (self.nx % 2 == 0 or self.ny % 2 == 0):
            raise ValueError("cross-shaped arrays need odd arm lengths so the "
                             f"shared device is central, got {self.nx}x{self.ny}")

    @property
    def num_elements(self) -> int:
        if self.kind is ArrayKind.CSSA:
            return self.nx + self.ny - 1
        return self.nx * self.ny


@dataclass(frozen=True)
class AnglePair:
    """Azimuth/elevation pair in radians, each in the open (-pi/2, pi/2)."""

    azimuth: float
    elevation: float = 0.0

    def __post_init__(self):
        half = np.pi / 2
        for name in ("azimuth", "elevation"):
            v = getattr(self, name)
            if not -half < v < half:
                raise ValueError(f"{name} must lie in (-pi/2, pi/2), got {v}")


def _phases(caller: str, kind: ArrayKind, geom: ArrayGeometry, azimuths, elevations,
            wavelength: float):
    """Per-axis phases (2*spacing/wavelength times each direction cosine) of a
    ``kind`` array at broadcast angle arrays, and the trailing unit shape that
    lines an element axis up against them; errors name ``caller``."""
    if geom.kind is not kind:
        raise ValueError(f"{caller} needs a {kind.name} geometry, got {geom.kind}")
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    ce = np.cos(elevations)
    scale = 2.0 * geom.spacing / wavelength
    phase_x = scale * (ce * np.cos(azimuths))
    phase_y = scale * (ce * np.sin(azimuths))
    return phase_x, phase_y, (1,) * phase_x.ndim


def upa_response(geom: ArrayGeometry, angles: AnglePair, wavelength: float) -> np.ndarray:
    """Planar-array response toward one direction: the one-angle case of
    :func:`upa_responses`."""
    return upa_responses(geom, angles.azimuth, angles.elevation, wavelength)


def upa_responses(geom: ArrayGeometry, azimuths, elevations, wavelength: float) -> np.ndarray:
    """Planar-array responses at broadcast angle arrays, shape (N, *shape).

    Axis entry m is exp(-j*pi*m*phase), with phase (2*spacing/wavelength)
    times that axis's direction cosine; element (m, n) is x-entry m times
    y-entry n, as in the Kronecker product of the two axis vectors.
    """
    phase_x, phase_y, lead = _phases("upa_response", ArrayKind.UPA, geom, azimuths,
                                     elevations, wavelength)
    arm_x = np.exp(-1j * np.pi * np.arange(geom.nx).reshape((-1, 1) + lead) * phase_x)
    arm_y = np.exp(-1j * np.pi * np.arange(geom.ny).reshape((1, -1) + lead) * phase_y)
    return (arm_x * arm_y).reshape((geom.num_elements,) + phase_x.shape)


def cssa_responses(geom: ArrayGeometry, azimuths, elevations, wavelength: float) -> np.ndarray:
    """Cross-shaped-array responses at broadcast angle arrays, shape (L, *shape).

    Each arm is a 1D steering vector whose phase reference sits on the shared
    central device (symmetric index offsets, so the center entry is exactly
    1), so the two arms agree there and the device appears once: the x-arm
    first, then the y-arm with its central entry dropped.
    """
    phase_x, phase_y, lead = _phases("cssa_responses", ArrayKind.CSSA, geom, azimuths,
                                     elevations, wavelength)
    off_x = (np.arange(geom.nx) - (geom.nx - 1) / 2).reshape((-1,) + lead)
    off_y = (np.arange(geom.ny) - (geom.ny - 1) / 2).reshape((-1,) + lead)
    arm_x = np.exp(-1j * np.pi * off_x * phase_x[None])
    arm_y = np.exp(-1j * np.pi * off_y * phase_y[None])
    keep = np.arange(geom.ny) != (geom.ny - 1) // 2
    return np.concatenate([arm_x, arm_y[keep]], axis=0)
