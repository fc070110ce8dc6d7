"""Independent reference model of the coating-only received power.

Written from textbook far-field formulas, not from the library:

* planar-array steering vector: element (m, n) at local offset (m d, n d)
  has response exp(-j 2 pi d (m ux + n uy) / lambda), where ux, uy are the
  direction cosines of the far node along the array's x- and y-axes;
  elements are ordered row-major over (m, n);
* path gain sqrt(alpha) / dist * exp(-j 2 pi dist / lambda);
* beamforming gain g_k = rho_k * (a_k . w_k) of radar k's array response
  toward the target and its beamformer;
* coating gain of the link radar j -> target -> radar k:
  c_kj = sum_n a_k[n] a_j[n] phi_n over the coating block of the surface;
* link weight w_kj = P_j |g_k|^2 |g_j|^2, coating-only power
  sum_kj w_kj |c_kj|^2, and for one radar the optimum over amplitude-capped
  panels w * max(|c| - N1 beta, 0)^2.

Array frames: the target's array x-axis points along world -z, every
radar's along world +z, and all y-axes along world +x.

Run this file to execute the self-test on a hand-checkable case.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

TARGET_AXES = ((0.0, 0.0, -1.0), (1.0, 0.0, 0.0))
RADAR_AXES = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))


def steering(nx: int, ny: int, spacing: float, wavelength: float,
             origin, toward, axes) -> np.ndarray:
    """Response of an nx x ny planar array at ``origin`` toward ``toward``."""
    d = np.asarray(toward, dtype=float) - np.asarray(origin, dtype=float)
    d = d / np.linalg.norm(d)
    ux, uy = (float(d @ np.asarray(ax)) for ax in axes)
    m = np.repeat(np.arange(nx), ny)
    n = np.tile(np.arange(ny), nx)
    return np.exp(-2j * np.pi * spacing * (m * ux + n * uy) / wavelength)


def path_gain(dist: float, alpha: float, wavelength: float) -> complex:
    return math.sqrt(alpha) / dist * cmath.exp(-2j * math.pi * dist / wavelength)


def link_terms(doc: dict, radar_positions, beamformers, target_position, phi):
    """Link weights w[k, j] and coating gains c[k, j] of a scenario.

    ``doc`` is the scenario config document (wavelength, reference gain,
    array sizes and spacings, transmit powers); positions, beamformers and
    coating coefficients are read from the built scenario.
    """
    lam = doc["wavelength"]
    alpha = 10.0 ** (doc["alpha_db"] / 10.0)
    tgt = doc["target"]
    radars = doc["radars"][: len(radar_positions)]
    g = np.empty(len(radars), dtype=complex)
    coat = []
    for k, (rc, pos, w) in enumerate(zip(radars, radar_positions, beamformers)):
        dist = float(np.linalg.norm(np.subtract(pos, target_position)))
        a = steering(rc["mx"], rc["my"], rc["spacing"], lam, pos, target_position,
                     RADAR_AXES)
        g[k] = path_gain(dist, alpha, lam) * (a @ np.asarray(w))
        surface = steering(tgt["n1x"] + tgt["n2x"], tgt["n2y"], tgt["spacing"], lam,
                           target_position, pos, TARGET_AXES)
        coat.append(surface[tgt["n1x"] * tgt["n1y"]:])
    coat = np.array(coat)
    c = (coat[:, None, :] * coat[None, :, :]) @ np.asarray(phi)
    power = np.array([10.0 ** ((rc["tx_power_dbm"] - 30.0) / 10.0) for rc in radars])
    w = np.abs(g[:, None]) ** 2 * (power * np.abs(g) ** 2)[None, :]
    return w, c


def coating_power(w: np.ndarray, c: np.ndarray) -> float:
    return float(np.sum(w * np.abs(c) ** 2))


def single_radar_optimum(w: np.ndarray, c: np.ndarray, n1: int, beta: float) -> float:
    """Minimum received power of one radar over amplitude-capped panels."""
    return float(w[0, 0] * max(abs(c[0, 0]) - n1 * beta, 0.0) ** 2)


def selftest() -> None:
    """Hand-checkable case: one 1x1 radar right under a 1x1 panel and 1x1 coating.

    The target sees the radar along its array x-axis (ux = 1), so with
    quarter-wavelength spacing the coating element (x index 1) has response
    exp(-j pi / 2) = -j and c = (-j)^2 phi = -phi.  With P = 15 dBm,
    alpha = -30 dB, dist = 100 m and |phi|^2 = 0.2, the coating-only power
    is P (alpha / dist^2)^2 |phi|^2 and, for beta = 0.2, the optimum is
    P (alpha / dist^2)^2 (sqrt(0.2) - 0.2)^2.
    """
    doc = {"wavelength": 0.05, "alpha_db": -30.0,
           "radars": [{"mx": 1, "my": 1, "spacing": 0.025, "tx_power_dbm": 15.0}],
           "target": {"n1x": 1, "n1y": 1, "n2x": 1, "n2y": 1, "spacing": 0.0125}}
    phi = np.array([math.sqrt(0.2) * cmath.exp(0.3j)])
    w, c = link_terms(doc, [(0.0, 0.0, 0.0)], [np.ones(1)], (0.0, 0.0, 100.0), phi)
    scale = 10.0 ** -1.5 * (1e-3 / 100.0 ** 2) ** 2
    checks = {
        "coating gain": (c[0, 0], -phi[0]),
        "link weight": (w[0, 0], scale),
        "coating-only power": (coating_power(w, c), scale * 0.2),
        "single-radar optimum": (single_radar_optimum(w, c, 1, 0.2),
                                 scale * (math.sqrt(0.2) - 0.2) ** 2),
        "full stealth": (single_radar_optimum(w, c, 1, 0.5), 0.0),
    }
    for name, (got, want) in checks.items():
        if abs(got - want) > 1e-12 * max(abs(want), 1e-300):
            raise AssertionError(f"reference self-test, {name}: got {got}, want {want}")


if __name__ == "__main__":
    selftest()
    print("reference self-test passed")
