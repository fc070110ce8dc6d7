"""Steering vectors and array responses for the radar- and target-side arrays.

Conventions: directions are parametrized by an azimuth measured in the
array plane from the array x-axis and an elevation measured from that plane
toward the array normal, both in the open interval (-pi/2, pi/2); the
direction cosines along the array axes are cos(el)*cos(az) and
cos(el)*sin(az).  Planar responses are Kronecker products of two 1D
steering vectors (x-axis factor first), so elements are indexed row-major
over (x, y).
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


def direction_cosines(angles: AnglePair) -> tuple[float, float]:
    """Direction cosines along the array x- and y-axes."""
    ce = np.cos(angles.elevation)
    return float(ce * np.cos(angles.azimuth)), float(ce * np.sin(angles.azimuth))


def steer_1d(phase_diff: float, n: int) -> np.ndarray:
    """Steering vector of an n-element uniform line.

    Entry m equals exp(-j*pi*m*phase_diff) where ``phase_diff`` is the
    phase difference between adjacent elements in units of pi.
    """
    if n < 1:
        raise ValueError(f"steering vector needs at least one element, got n={n}")
    return np.exp(-1j * np.pi * np.arange(n) * phase_diff)


def upa_response(geom: ArrayGeometry, angles: AnglePair, wavelength: float) -> np.ndarray:
    """Planar-array response: kron of the x- and y-axis steering vectors.

    The per-axis phase arguments are (2*spacing/wavelength) times the
    direction cosines, so every entry has unit modulus.
    """
    if geom.kind is not ArrayKind.UPA:
        raise ValueError(f"upa_response needs a UPA geometry, got {geom.kind}")
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    cx, cy = direction_cosines(angles)
    scale = 2.0 * geom.spacing / wavelength
    return np.kron(steer_1d(scale * cx, geom.nx), steer_1d(scale * cy, geom.ny))


def split_ts_response(full: np.ndarray, n1x: int, n2x: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a whole-surface response into its IRS and NIRS blocks.

    The surface stacks an n1x-column block and an n2x-column block along x
    with a shared y-grid, so the Kronecker-ordered response is exactly the
    concatenation of the two block responses.  The first block matches the
    sub-grid's own response; the second carries the x-index offset phase.
    """
    full = np.asarray(full)
    if n1x < 0 or n2x < 0 or ny < 1:
        raise ValueError(f"invalid block dimensions ({n1x}, {n2x}, {ny})")
    if full.size != (n1x + n2x) * ny:
        raise ValueError(f"response length {full.size} does not match "
                         f"({n1x}+{n2x})x{ny} elements")
    cut = n1x * ny
    return full[:cut].copy(), full[cut:].copy()


def cssa_response(geom: ArrayGeometry, angles: AnglePair, wavelength: float) -> np.ndarray:
    """Cross-shaped-array response toward one direction: the one-angle case
    of :func:`cssa_responses`."""
    return cssa_responses(geom, angles.azimuth, angles.elevation, wavelength)


def cssa_responses(geom: ArrayGeometry, azimuths, elevations, wavelength: float) -> np.ndarray:
    """Cross-shaped-array responses at broadcast angle arrays, shape (L, *shape).

    Each arm is a 1D steering vector whose phase reference sits on the shared
    central device (symmetric index offsets, so the center entry is exactly
    1), so the two arms agree there and the device appears once: the x-arm
    first, then the y-arm with its central entry dropped.
    """
    if geom.kind is not ArrayKind.CSSA:
        raise ValueError(f"cssa_response needs a CSSA geometry, got {geom.kind}")
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    ce = np.cos(elevations)
    scale = 2.0 * geom.spacing / wavelength
    phase_x = scale * (ce * np.cos(azimuths))
    phase_y = scale * (ce * np.sin(azimuths))
    lead = (1,) * phase_x.ndim
    off_x = (np.arange(geom.nx) - (geom.nx - 1) / 2).reshape((-1,) + lead)
    off_y = (np.arange(geom.ny) - (geom.ny - 1) / 2).reshape((-1,) + lead)
    arm_x = np.exp(-1j * np.pi * off_x * phase_x[None])
    arm_y = np.exp(-1j * np.pi * off_y * phase_y[None])
    keep = np.arange(geom.ny) != (geom.ny - 1) // 2
    return np.concatenate([arm_x, arm_y[keep]], axis=0)
