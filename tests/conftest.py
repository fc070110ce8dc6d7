"""Shared generators and independent oracles for the test suite."""

import warnings

import numpy as np
import pytest

# Hypothesis writes a patch for every failing example with libcst, whose
# first import warns (a DeprecationWarning of mypy_extensions.TypedDict).
# Under ``-W error`` that warning, raised in a report hook, aborts the whole
# session; importing the patch writer here, warning ignored, lets the run
# go on and list its failures.  Without libcst there is no patch writer.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from irstealth.arrays import AnglePair, ArrayGeometry, ArrayKind, upa_response
from irstealth.power_model import QcqpInstance, angles_between

# (x-axis, y-axis, normal) of the target's and every radar's array in world
# coordinates: the x-axes point down and up, the normals along world +y.
TARGET_AXES = (np.array([0.0, 0.0, -1.0]), np.array([1.0, 0.0, 0.0]),
               np.array([0.0, 1.0, 0.0]))
RADAR_AXES = (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
              np.array([0.0, 1.0, 0.0]))


def unit_phases(rng, n):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))


def one_link_instance(u, c, beta=1.0):
    """Link factor of |u^H theta + c|^2: one row u^H, coating term c."""
    return QcqpInstance(np.conj(u)[None, :], np.array([c]), beta)


def dense_terms(inst):
    """Expanded objective data U = D^H D, v = D^H r, c = ||r||^2 (test oracle)."""
    d_mat, r = inst.d_mat, inst.columns[:, 0]
    return (d_mat.conj().T @ d_mat, d_mat.conj().T @ r, float(np.real(np.vdot(r, r))))


def random_single_instance(rng, n1=None, beta=1.0):
    """Link factor of one mono-static link, plus its (u, c) pair.

    The gain magnitude is drawn wide enough to hit both the saturated and
    the fully-cancelling regimes.
    """
    n1 = int(n1 if n1 is not None else rng.integers(1, 33))
    u = unit_phases(rng, n1)
    c = rng.uniform(0.0, 2.0 * n1 * beta) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return one_link_instance(u, c, beta), u, c


def random_multi_instance(rng, n1x=4, ny=2, k=3, beta=1.0):
    """Link factor of k^2 weighted links from random geometry and gains.

    Link (i, j) contributes w_ij |u_ij^H theta + g_ij|^2 with the cascaded
    response u_ij of the random arrival directions.
    """
    geom = ArrayGeometry(ArrayKind.UPA, n1x, ny, 0.0125)
    responses = [upa_response(geom, AnglePair(rng.uniform(-1.3, 1.3),
                                              rng.uniform(-0.5, 0.5)), 0.05)
                 for _ in range(k)]
    weights = rng.uniform(0.1, 1.0, (k, k))
    gains = (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))) * 2.0
    rows, rhs = [], []
    for i in range(k):
        for j in range(k):
            amp = np.sqrt(weights[i, j])
            rows.append(amp * responses[i] * responses[j])
            rhs.append(amp * gains[i, j])
    return QcqpInstance(np.array(rows), np.array(rhs), beta)


def link_oracle(scenario):
    """Link-by-link terms of the received-power objective (test oracle).

    Built from the array responses toward each node, the free-space path
    gain sqrt(alpha)/d * exp(-2j*pi*d/lambda) and the radars' beamformers
    and transmit powers alone.  Returns the gains g[k] = rho_k (a_k . w_k),
    the link weights w[k, j] = P_j |g[k]|^2 |g[j]|^2 and the cascaded panel
    and coating responses u[k, j] = conj(a_k * a_j), u_nirs[k, j] =
    conj(b_k * b_j) of the link radar j -> target -> radar k, where a and b
    are the panel and coating parts of the surface response toward a radar.
    """
    target, lam = scenario.target, scenario.wavelength
    n1 = target.irs_geometry.num_elements
    gains, panel, coating = [], [], []
    for radar in scenario.radars:
        distance = np.linalg.norm(np.subtract(radar.position, target.position))
        rho = (np.sqrt(scenario.ref_gain) / distance
               * np.exp(-2j * np.pi * distance / lam))
        a_radar = upa_response(radar.geometry, angles_between(
            radar.position, target.position, RADAR_AXES), lam)
        gains.append(rho * (a_radar @ radar.beamformer))
        surface = upa_response(target.surface_geometry, angles_between(
            target.position, radar.position, TARGET_AXES), lam)
        panel.append(surface[:n1])
        coating.append(surface[n1:])
    k_r = scenario.num_radars
    weights = np.empty((k_r, k_r))
    u = np.empty((k_r, k_r, n1), dtype=complex)
    u_nirs = np.empty((k_r, k_r, coating[0].size), dtype=complex)
    for k in range(k_r):
        for j in range(k_r):
            weights[k, j] = (scenario.radars[j].tx_power
                             * abs(gains[k]) ** 2 * abs(gains[j]) ** 2)
            u[k, j] = np.conj(panel[k] * panel[j])
            u_nirs[k, j] = np.conj(coating[k] * coating[j])
    return np.array(gains), weights, u, u_nirs


def oracle_radar_powers(scenario, theta):
    """Received power of every radar, summed link by link over the probing
    radars: sum_j w[k, j] |u[k, j]^H theta + u_nirs[k, j]^H phi|^2."""
    _, weights, u, u_nirs = link_oracle(scenario)
    phi = scenario.target.nirs.phi
    k_r = scenario.num_radars
    return np.array([sum(weights[k, j] * abs(np.vdot(u[k, j], theta)
                                             + np.vdot(u_nirs[k, j], phi)) ** 2
                         for j in range(k_r)) for k in range(k_r)])


def polar_grid(beta, amp_step, phase_step):
    amps = np.arange(0, int(round(beta / amp_step)) + 1) * amp_step
    phases = np.arange(0, int(2.0 * np.pi / phase_step) + 1) * phase_step
    phases = phases[phases < 2.0 * np.pi]
    return amps, phases


def grid_search_min_1(inst, amp_step=0.01, phase_step=0.01):
    """Exhaustive polar-grid minimum for a one-element instance."""
    amps, phases = polar_grid(inst.beta_max, amp_step, phase_step)
    z = (amps[:, None] * np.exp(1j * phases)[None, :]).ravel()
    u_mat, v_vec, c_const = dense_terms(inst)
    a11 = float(np.real(u_mat[0, 0]))
    vals = a11 * np.abs(z) ** 2 + 2.0 * np.real(np.conj(v_vec[0]) * z) + c_const
    return float(vals.min())


def grid_search_min_2(inst, amp_step=0.01, phase_step=0.01):
    """Exhaustive polar-grid minimum for a two-element instance.

    Enumerates (r1, psi1, r2) and minimizes over psi2 exactly: for fixed
    other coordinates the objective is a single sinusoid in psi2, so its
    grid minimum lies at a grid point bracketing the continuous minimizer.
    """
    amps, phases = polar_grid(inst.beta_max, amp_step, phase_step)
    n_psi = phases.size
    u_mat, v_vec, c_const = dense_terms(inst)
    a11 = float(np.real(u_mat[0, 0]))
    a22 = float(np.real(u_mat[1, 1]))
    u12 = complex(u_mat[0, 1])
    v1, v2 = complex(v_vec[0]), complex(v_vec[1])
    best = np.inf
    e_psi = np.exp(1j * phases)
    for r1 in amps:
        w = u12 * r1 * np.conj(e_psi) + np.conj(v2)
        base = a11 * r1 * r1 + 2.0 * np.real(np.conj(v1) * r1 * e_psi) + c_const
        target = np.pi - np.angle(w)
        k0 = np.floor(target / phase_step).astype(int)
        cand = np.stack([(k0 + d) % n_psi for d in (-1, 0, 1, 2)])
        min_cos = np.cos(cand * phase_step + np.angle(w)[None, :]).min(axis=0)
        pair = a22 * amps[:, None] ** 2 \
            + 2.0 * amps[:, None] * (np.abs(w) * min_cos)[None, :]
        best = min(best, float((base[None, :] + pair).min()))
    return best


def grid_search_min_2_literal(inst, amp_step, phase_step):
    """Plain full enumeration over both elements (coarse grids only)."""
    amps, phases = polar_grid(inst.beta_max, amp_step, phase_step)
    z = (amps[:, None] * np.exp(1j * phases)[None, :]).ravel()
    u_mat, v_vec, c_const = dense_terms(inst)
    a11 = float(np.real(u_mat[0, 0]))
    a22 = float(np.real(u_mat[1, 1]))
    u12 = complex(u_mat[0, 1])
    vals = (a11 * np.abs(z) ** 2 + 2.0 * np.real(np.conj(v_vec[0]) * z))[:, None] \
        + (a22 * np.abs(z) ** 2 + 2.0 * np.real(np.conj(v_vec[1]) * z))[None, :] \
        + 2.0 * np.real(u12 * np.conj(z)[:, None] * z[None, :]) + c_const
    return float(vals.min())


@pytest.fixture(scope="session")
def single_scenario():
    from irstealth.config import build_scenario, single_radar_config
    return build_scenario(single_radar_config())


@pytest.fixture(scope="session")
def multi_scenario():
    from irstealth.config import build_scenario, multi_radar_config
    return build_scenario(multi_radar_config())
