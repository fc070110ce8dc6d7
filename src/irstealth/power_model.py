"""Radar waveforms, path and beamforming gains, and the received-power objective.

The scenario couples K mono-static radars with one target whose surface
stacks a tunable reflecting panel (amplitude-capped complex coefficients)
next to a fixed absorptive coating, plus a small cross-shaped sensing array.
All nodes carry 3D positions; angles follow the convention of
:mod:`irstealth.arrays`.  Array frames are fixed: the target's array x-axis
points down (world -z) and every radar's points up (world +z), all array
y-axes lie along world +x and the normals along world +y, so node layouts
inside the world x-z plane give zero elevation and in-plane azimuths.
Powers are linear watts throughout.  The received-power objective is held as
its stacked link factor, one problem object (:class:`QcqpInstance`, built by
:meth:`ScenarioGeometry.factor`) that alone evaluates it: K radars see the
panel only through K^2 rank-one links, so the problem of the first k radars
is the leading k x k block of link rows of the K-radar factor.  Trials on
true data share one link matrix; trials designed toward their own steered or
sensed directions hold one link matrix each, as one stacked problem whose
slices broadcast through every operation.  Each scenario builds its own
true factor once (:attr:`Scenario.factor`), which :func:`sum_power` and
:func:`radar_powers` read.

A scenario splits into a seed-free :class:`ScenarioGeometry` (nodes,
surface responses, radar gains and link amplitudes, each built once on
first use) and the per-seed coating phases and pulse epochs that
:meth:`ScenarioGeometry.draw` adds.  Scenarios drawn from one
geometry share everything it has built.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .arrays import AnglePair, ArrayGeometry, ArrayKind, upa_response, upa_responses

# Per-node (x-axis, y-axis, normal) triads in world coordinates.
_TARGET_AXES = (np.array([0.0, 0.0, -1.0]), np.array([1.0, 0.0, 0.0]),
                np.array([0.0, 1.0, 0.0]))
_RADAR_AXES = (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
               np.array([0.0, 1.0, 0.0]))


@dataclass(frozen=True, eq=False)
class RadarNode:
    """One mono-static radar: planar array, pulse parameters, beamformer."""

    geometry: ArrayGeometry
    position: tuple[float, float, float]
    beamformer: np.ndarray
    tx_power: float
    pri: float
    pulse: float
    bandwidth: float
    pulse_epoch: float = 0.0

    def __post_init__(self):
        if self.geometry.kind is not ArrayKind.UPA:
            raise ValueError("radar arrays must be planar")
        w = np.asarray(self.beamformer)
        if w.size != self.geometry.num_elements:
            raise ValueError(f"beamformer length {w.size} does not match "
                             f"{self.geometry.num_elements} antennas")
        if abs(np.linalg.norm(w) - 1.0) > 1e-9:
            raise ValueError("beamformer must have unit norm")
        if not 0 < self.pulse < self.pri:
            raise ValueError(f"need 0 < pulse < pri, got {self.pulse} / {self.pri}")
        if self.tx_power <= 0:
            raise ValueError(f"transmit power must be positive, got {self.tx_power}")


@dataclass(frozen=True, eq=False)
class NirsPanel:
    """Fixed coating coefficients; |phi_n| = sqrt(1 - zeta_n) per element."""

    phi: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi)
        zeta = np.asarray(self.zeta)
        if phi.shape != zeta.shape:
            raise ValueError("phi and zeta lengths differ")
        if np.any(zeta < 0) or np.any(zeta > 1):
            raise ValueError("absorbing efficiencies must lie in [0, 1]")
        if np.max(np.abs(np.abs(phi) - np.sqrt(1.0 - zeta)), initial=0.0) > 1e-9:
            raise ValueError("|phi_n| must equal sqrt(1 - zeta_n)")


@dataclass(frozen=True, eq=False)
class Target:
    """Target surface: tunable panel and coating side by side, plus sensing array.

    ``beta_max`` caps the reflection amplitude of every panel element.
    """

    position: tuple[float, float, float]
    irs_geometry: ArrayGeometry
    nirs_geometry: ArrayGeometry
    beta_max: float
    nirs: NirsPanel
    cssa_geometry: ArrayGeometry
    cssa_noise: float

    def __post_init__(self):
        if self.irs_geometry.ny != self.nirs_geometry.ny:
            raise ValueError("panel and coating must share the y-grid")
        if self.irs_geometry.spacing != self.nirs_geometry.spacing:
            raise ValueError("panel and coating must share the element spacing")
        if not 0 < self.beta_max <= 1:
            raise ValueError(f"beta_max must be in (0, 1], got {self.beta_max}")
        if np.asarray(self.nirs.phi).size != self.nirs_geometry.num_elements:
            raise ValueError("phi length does not match the coating grid")
        if self.cssa_geometry.kind is not ArrayKind.CSSA:
            raise ValueError("sensing array must be cross shaped")

    @property
    def surface_geometry(self) -> ArrayGeometry:
        return ArrayGeometry(ArrayKind.UPA,
                             self.irs_geometry.nx + self.nirs_geometry.nx,
                             self.irs_geometry.ny, self.irs_geometry.spacing)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Immutable world state: K radars, one target, one wavelength.

    ``geometry`` is the scenario's seed-free half: the one it was drawn from
    by :meth:`ScenarioGeometry.draw`, shared with every scenario drawn from
    it, or else one built from the scenario's own fields on first use.
    ``factor`` is its true link factor, built on first use.  A scenario
    changed with ``dataclasses.replace`` builds its own of both.
    """

    wavelength: float
    radars: tuple[RadarNode, ...]
    target: Target
    ref_gain: float
    seed: int = 0

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.ref_gain <= 0:
            raise ValueError("reference path gain must be positive")
        if not self.radars:
            raise ValueError("scenario needs at least one radar")

    @property
    def num_radars(self) -> int:
        return len(self.radars)

    @cached_property
    def geometry(self) -> ScenarioGeometry:
        return ScenarioGeometry(self.wavelength, self.ref_gain, self.radars, self.target)

    @cached_property
    def factor(self) -> QcqpInstance:
        """The true link factor on the scenario's own coating, built once, on
        first use: the one-column :meth:`ScenarioGeometry.factor` of its
        geometry."""
        return self.geometry.factor(np.asarray(self.target.nirs.phi)[:, None])


def angles_between(pos_from, pos_to, axes) -> AnglePair:
    """Azimuth/elevation of ``pos_to`` seen from an array at ``pos_from``.

    ``axes`` is the observing array's (x-axis, y-axis, normal) triad; the
    observed node must sit in the half-space of positive x direction cosine.
    """
    d = np.asarray(pos_to, dtype=float) - np.asarray(pos_from, dtype=float)
    dist = np.linalg.norm(d)
    if dist == 0:
        raise ValueError("nodes are co-located")
    d /= dist
    ux, uy, un = (float(d @ ax) for ax in axes)
    elevation = np.arcsin(np.clip(un, -1.0, 1.0))
    return AnglePair(float(np.arctan2(uy, ux)), float(elevation))


def _distance(pos_a, pos_b) -> float:
    return float(np.linalg.norm(np.asarray(pos_a, dtype=float)
                                - np.asarray(pos_b, dtype=float)))


def path_gain(distance: float, alpha: float, wavelength: float) -> complex:
    """Free-space path gain sqrt(alpha)/distance * exp(-2j*pi*distance/wavelength).

    ``alpha`` is the linear power gain at 1 m.
    """
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    if alpha <= 0:
        raise ValueError(f"reference gain must be positive, got {alpha}")
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    return complex(np.sqrt(alpha) / distance
                   * np.exp(-2j * np.pi * distance / wavelength))


def chirp_waveform(t, radar: RadarNode):
    """Transmitted pulse amplitude of one radar at time ``t`` within a PRI.

    Linear-FM pulse sqrt(P * pri/pulse) * exp(j*pi*B*(t-epoch)^2/pulse) inside
    the pulse window, zero for the rest of the interval.  The sqrt(pri/pulse)
    factor normalizes the pulse so its power averaged over the whole interval
    equals the transmit power.
    """
    t = np.asarray(t, dtype=float)
    rel = t - radar.pulse_epoch
    if np.any(rel < 0) or np.any(rel >= radar.pri):
        raise ValueError("time outside the pulse repetition interval")
    amplitude = np.sqrt(radar.tx_power * radar.pri / radar.pulse)
    value = np.where(rel <= radar.pulse,
                     amplitude * np.exp(1j * np.pi * radar.bandwidth * rel ** 2 / radar.pulse),
                     0.0 + 0.0j)
    return value if value.ndim else complex(value)


def matched_beamformer(radar_geometry: ArrayGeometry, target_angles: AnglePair,
                       wavelength: float) -> np.ndarray:
    """Unit-norm beamformer conjugate-matched to the given direction."""
    a = upa_response(radar_geometry, target_angles, wavelength)
    return np.conj(a) / np.sqrt(a.size)


def _pairs(block: np.ndarray) -> np.ndarray:
    """Row-wise Khatri-Rao product of a K-row block with itself: row (k, j) is
    block[k] * block[j], K^2 rows in link-row order (per leading index of a
    stack of blocks)."""
    pairs = block[..., :, None, :] * block[..., None, :, :]
    return pairs.reshape(block.shape[:-2] + (block.shape[-2] ** 2, block.shape[-1]))


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of an array (the array itself stays as it was)."""
    view = array.view()
    view.flags.writeable = False
    return view


def _column_vectors(x: np.ndarray) -> np.ndarray:
    """The T columns of ``x`` (rows x T) as a T x rows x 1 stack, each column
    copied to unit stride, as a one-column problem's column is, since BLAS
    may round a strided vector otherwise."""
    return np.ascontiguousarray(x.T)[:, :, None]


_DROPPED = 1e-13  # drop bound of QcqpInstance.reduced, a thousandth of pgd's default tol


class QcqpInstance:
    """Received-power objective ||D theta + r||^2 held as its stacked link factor.

    ``d_mat`` has one row per link and one column per panel element, and
    ``columns`` the matching coating terms, an M x T matrix of T problems (a
    vector given to the constructor becomes one column).  Either all T
    problems share one M x N link matrix, as the trials of a true sweep
    point do, or ``d_mat`` is a T x M x N stack with one link matrix per
    column, as steered or sensed trials have.  The expanded form
    theta^H U theta + 2 Re(v^H theta) + c has U = D^H D, v = D^H r and
    c = ||r||^2, so it is positive semidefinite by construction and is never
    formed.  ``beta_max`` caps every element's
    reflection amplitude.  ``d_mat`` and ``columns`` are read-only, and so
    are the thin SVD and the :attr:`reduced` problem, each computed on first
    use.  :meth:`objective` is the one evaluation of the objective: every
    design reports its value from it.  A stack broadcasts every operation
    over its slices, and slice t gives the bits of the one-problem instance
    of ``d_mat[t]`` and column t.
    """

    def __init__(self, d_mat, columns, beta_max: float):
        d, r = np.asarray(d_mat, dtype=complex), np.asarray(columns, dtype=complex)
        r = r[:, None] if r.ndim == 1 else r
        if d.ndim not in (2, 3):
            raise ValueError("link matrix must be two-dimensional, or a stack of them, "
                             f"got {d.shape}")
        if r.ndim != 2 or r.shape[0] != d.shape[-2]:
            raise ValueError("coating terms do not match the link rows")
        if r.shape[1] == 0:
            raise ValueError("coating terms need at least one column")
        if d.ndim == 3 and d.shape[0] != r.shape[1]:
            raise ValueError(f"a stack of {d.shape[0]} link matrices needs as many "
                             f"coating-term columns, got {r.shape[1]}")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(r))):
            raise ValueError("link factor must be finite")
        if not 0 < beta_max <= 1:
            raise ValueError(f"beta_max must be in (0, 1], got {beta_max}")
        self.d_mat, self.columns, self.beta_max = _read_only(d), _read_only(r), beta_max

    @property
    def n_elements(self) -> int:
        return self.d_mat.shape[-1]

    def objective(self, thetas) -> np.ndarray:
        """||D theta_t + r_t||^2 of every column t, the sum over link rows of
        Re^2 + Im^2 of the residual; ``thetas`` holds one design per column
        (N x T), or one design (a vector) for every column."""
        thetas = np.asarray(thetas)
        if self.d_mat.ndim == 2:
            residual = self.d_mat @ thetas
            residual = residual.reshape(residual.shape[0], -1) + self.columns
            return np.sum(residual.real ** 2 + residual.imag ** 2, axis=0)
        if thetas.ndim == 1:
            thetas = np.broadcast_to(thetas[:, None], (thetas.size, self.columns.shape[1]))
        residual = (self.d_mat @ _column_vectors(thetas))[:, :, 0] + self.columns.T
        return np.sum(residual.real ** 2 + residual.imag ** 2, axis=1)

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD (P, sigma, Q^H) of D, sigma descending (per slice of a stack)."""
        return tuple(_read_only(x) for x in np.linalg.svd(self.d_mat, full_matrices=False))

    @cached_property
    def reduced(self) -> QcqpInstance:
        """The same problems on the link matrix B: D's k kept singular rows
        sigma_i q_i^H, then one zero row, with coating terms P_k^H r and then
        ||r - P_k P_k^H r||, from one product over all columns.

        Trailing directions are dropped while their sum of rho^2 + rho,
        rho = sigma_i / sigma_1, stays at or below ``_DROPPED``; then the
        reduced problem keeps ||D theta + r||^2 to ``_DROPPED``
        (sigma_1^2 N1 beta^2 + 2 ||D^H r|| beta sqrt(N1) + ||r||^2) over
        |theta_n| <= beta.  Its thin SVD ([I; 0], sigma_k, Q_k^H) is known.
        Each problem of a stack keeps its own k_t: the stack is padded to the
        largest k with zero directions (zero rows, zero coating terms and
        sigma = 0), and the residual row stays last, so problem t's reduced
        problem is its k_t kept rows and the last row.
        """
        p, sig, qh = self.svd
        top = sig[..., :1]
        rho = np.divide(sig, top, out=np.zeros_like(sig), where=top > 0)
        kept = np.count_nonzero(np.cumsum((rho ** 2 + rho)[..., ::-1], axis=-1)[..., ::-1]
                                > _DROPPED, axis=-1)
        k = int(np.max(kept))
        inside = np.arange(k) < kept[..., None]
        p_k = np.where(inside[..., None, :], p[..., :k], 0.0)
        sig_k = np.where(inside, sig[..., :k], 0.0)
        r_mat = self.columns if self.d_mat.ndim == 2 else _column_vectors(self.columns)
        coords = np.swapaxes(p_k.conj(), -1, -2) @ r_mat
        outside = np.linalg.norm(r_mat - p_k @ coords, axis=-2, keepdims=True)
        terms = np.concatenate([coords, outside], axis=-2)
        qh_k = qh[..., :k, :]
        rows = np.concatenate([sig_k[..., None] * qh_k,
                               np.zeros(qh_k.shape[:-2] + (1, self.n_elements))], axis=-2)
        eye = np.broadcast_to(np.eye(k + 1, k, dtype=complex), rows.shape[:-2] + (k + 1, k))
        reduced = QcqpInstance(rows, terms if terms.ndim == 2 else terms[:, :, 0].T,
                               self.beta_max)
        reduced.__dict__["svd"] = tuple(_read_only(x) for x in (eye, sig_k, qh_k))
        return reduced


def link_factor(scenario: Scenario, angles=None, g2=None) -> QcqpInstance:
    """Link factor of one scenario, on its own coating coefficients: the
    one-column :meth:`ScenarioGeometry.factor` of its geometry, toward one
    angle tuple and with one g2 row when given.  The true factor
    (``angles`` and ``g2`` both None) is the scenario's own
    :attr:`Scenario.factor`, built once."""
    if angles is None and g2 is None:
        return scenario.factor
    return scenario.geometry.factor(np.asarray(scenario.target.nirs.phi)[:, None],
                                    None if angles is None else [angles],
                                    None if g2 is None else np.asarray(g2)[None])


class ScenarioGeometry:
    """Seed-free half of a scenario, shared by every trial drawn from it.

    Holds the wavelength, reference path gain, radar nodes (their pulse
    epochs are the bare propagation delays), the target (its coating at zero
    phase) and the pulse-clock jitter bound.  On first use, and then once,
    it builds the surface blocks toward the radars, the radars' beamforming
    gains and the link amplitudes, all read-only.
    :meth:`factor` builds the link factor of any coating coefficients from
    them; the factor of its first k radars is the leading k x k block of
    link rows of its K-radar factor.  Coating phases and pulse epochs are
    never read from it: :meth:`draw` and :meth:`coatings` draw them per seed.
    """

    def __init__(self, wavelength: float, ref_gain: float, radars: tuple[RadarNode, ...],
                 target: Target, epoch_jitter: float = 0.0):
        self.wavelength = wavelength
        self.ref_gain = ref_gain
        self.radars = tuple(radars)
        self.target = target
        self.epoch_jitter = epoch_jitter

    def draw(self, seed) -> Scenario:
        """Scenario of one seed: uniform coating phases, then each radar's
        pulse-clock jitter in [0, epoch_jitter), in that order."""
        rng = np.random.default_rng(_checked_seed(seed))
        target = replace(self.target, nirs=replace(self.target.nirs, phi=self._coating(rng)))
        radars = tuple(replace(r, pulse_epoch=float(
            r.pulse_epoch + rng.uniform(0.0, self.epoch_jitter))) for r in self.radars)
        scenario = Scenario(wavelength=self.wavelength, radars=radars, target=target,
                            ref_gain=self.ref_gain, seed=int(seed))
        scenario.__dict__["geometry"] = self
        return scenario

    def coatings(self, seeds) -> np.ndarray:
        """Coating coefficients of every seed, one column each: the phases
        :meth:`draw` gives the seed's scenario (the first draws of its own
        stream), without drawing pulse epochs."""
        return np.column_stack([self._coating(np.random.default_rng(_checked_seed(s)))
                                for s in seeds])

    def _coating(self, rng) -> np.ndarray:
        """Coating coefficients with uniform phases, the next draws of ``rng``."""
        magnitude = self._coating_magnitude
        return magnitude * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, magnitude.size))

    @cached_property
    def _coating_magnitude(self) -> np.ndarray:
        return _read_only(np.sqrt(1.0 - np.asarray(self.target.nirs.zeta)))

    def factor(self, phis, angles=None, g2=None) -> QcqpInstance:
        """Stacked link factor (D, r) of the sum-received-power objective, one
        coating-term column per column of the N2 x T coating coefficients ``phis``.

        Row (k, j) belongs to the link radar j -> target -> radar k.  It
        carries the link amplitude sqrt(w_kj) times the panel response
        a_k * a_j, and the same amplitude times the coating gain
        sum_n b_k[n] b_j[n] phi[n], where a and b are the panel and coating
        blocks of the surface response.  ``angles`` holds one angle tuple per
        column and ``g2`` one row per column; the inputs select one of three
        documented cases:

        * neither ``angles`` nor ``g2``: the true scenario, with weights
          w_kj = P_j |g_k|^2 |g_j|^2 from the :attr:`gains` g, so the
          objective at any feasible theta equals :func:`sum_power` in watts;
        * ``angles`` alone, one per radar in radar order in each tuple: a
          steering error.  The panel rows follow the given (perturbed)
          angles, while the coating gains and link weights keep their true,
          offline-calibrated values;
        * ``angles`` and ``g2``: sensed parameters.  Each tuple holds
          estimated arrival directions in any order, as many in every
          column, and its g2 row the matching power-scaled squared gains, so
          w_kj = g2_k g2_j; panel rows and coating gains both follow the
          estimated angles.  The uniform power scale of the estimates
          rescales the objective without moving its minimizer.  Assumes a
          common transmit power across radars.

        All columns share one link matrix when every tuple holds the true
        angles and no g2 is given, and then reuse the cached
        :attr:`true_blocks`.  Otherwise D is a T x M x N stack, one link
        matrix per column (the matrix itself for T = 1), whose surface
        blocks come from one :meth:`blocks` call over all T x K directions,
        and each column's coating product is its own, so column t gives the
        bits of its one-column factor.  The coating product reads ``phis``
        as a C-contiguous array, so its bits do not depend on the memory
        layout of the columns passed in.
        """
        n2 = self._coating_magnitude.size
        if np.ndim(phis) != 2 or np.shape(phis)[0] != n2:
            raise ValueError(f"need {n2} x T coating coefficients, got {np.shape(phis)}")
        count = np.shape(phis)[1]
        if angles is not None:
            angles = [tuple(column) for column in angles]
            if len(angles) != count:
                raise ValueError(f"need one angle tuple per coating column ({count}), "
                                 f"got {len(angles)}")
            if len({len(column) for column in angles}) > 1:
                raise ValueError("need as many angles in every column")
        sources = len(angles[0]) if angles else len(self.radars)
        true = angles is None or all(column == self.true_angles for column in angles)
        if true:
            panel, coating = self.true_blocks
        else:
            panel, coating = (b.reshape(count, sources, -1) for b in
                              self.blocks([a for column in angles for a in column]))
        if g2 is None:
            if sources != len(self.radars):
                raise ValueError(f"need one angle per radar, got {sources} "
                                 f"for {len(self.radars)}")
            amp, coating = self.amplitudes, self.true_blocks[1]
        else:
            g2 = np.asarray(g2, dtype=float)
            if angles is None or g2.shape != (count, sources):
                raise ValueError("need one gain estimate per estimated angle")
            if not np.all(np.isfinite(g2)) or np.any(g2 < 0):
                raise ValueError(f"gain estimates g2 must be finite and nonnegative, got {g2}")
            amp = np.sqrt(g2[:, :, None] * g2[:, None, :]).reshape(count, -1)
        d_mat, beta = amp[..., None] * _pairs(panel), self.target.beta_max
        phis = np.ascontiguousarray(phis)
        if d_mat.ndim == 2:
            return QcqpInstance(d_mat, amp[:, None] * (_pairs(coating) @ phis), beta)
        terms = (_pairs(coating) @ _column_vectors(phis))[:, :, 0]
        return QcqpInstance(d_mat[0] if count == 1 else d_mat, (amp * terms).T, beta)

    def blocks(self, angles) -> tuple[np.ndarray, np.ndarray]:
        """Panel and coating blocks toward each direction, one C-contiguous row
        each: the whole-surface response cut after the panel's N1 elements, so
        the coating block keeps its x-index offset phase."""
        target = self.target
        full = upa_responses(target.surface_geometry, [a.azimuth for a in angles],
                             [a.elevation for a in angles], self.wavelength)
        cut = target.irs_geometry.num_elements
        return full[:cut].T.copy(), full[cut:].T.copy()

    @cached_property
    def true_angles(self) -> tuple[AnglePair, ...]:
        """Arrival direction of every radar at the target surface."""
        return tuple(angles_between(self.target.position, r.position, _TARGET_AXES)
                     for r in self.radars)

    @cached_property
    def true_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """Panel and coating blocks toward every radar, one row per radar."""
        return tuple(_read_only(b) for b in self.blocks(self.true_angles))

    @cached_property
    def gains(self) -> np.ndarray:
        """Complex beamforming gain rho_k * (a_k . w_k) of every radar toward the
        target; by reciprocity one gain serves both directions of a radar's link."""
        g = np.zeros(len(self.radars), dtype=complex)
        for k, radar in enumerate(self.radars):
            rho = path_gain(_distance(radar.position, self.target.position),
                            self.ref_gain, self.wavelength)
            a = upa_response(radar.geometry, angles_between(
                radar.position, self.target.position, _RADAR_AXES), self.wavelength)
            g[k] = rho * (a @ np.asarray(radar.beamformer))
        return _read_only(g)

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """True link amplitudes sqrt(P_j |g_k|^2 |g_j|^2), flattened in link-row order."""
        powers = np.array([r.tx_power for r in self.radars])
        g2 = np.abs(self.gains) ** 2
        return _read_only(np.sqrt(g2[:, None] * (powers * g2)[None, :]).reshape(-1))


def _checked_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def _check_amplitudes(theta: np.ndarray, scenario: Scenario) -> np.ndarray:
    theta = np.asarray(theta)
    n1 = scenario.target.irs_geometry.num_elements
    if theta.shape != (n1,):
        raise ValueError(f"need one reflection coefficient per panel element ({n1}), "
                         f"got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("reflection coefficients must be finite")
    if np.max(np.abs(theta), initial=0.0) > scenario.target.beta_max + 1e-9:
        raise ValueError("reflection amplitudes exceed beta_max")
    return theta


def radar_powers(theta: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Received signal power of every radar over one PRI, in watts.

    Entry k sums the squared link-factor residuals of rows (k, 0..K-1), the
    echoes of every probing radar j at radar k; with a common transmit power
    this is P times radar k's stealth objective.  The entries add up to
    :func:`sum_power`.  One objective call on the scenario's factor cut into
    a stack of K blocks of K rows gives them all.
    """
    factor, theta = scenario.factor, _check_amplitudes(theta, scenario)
    k = scenario.num_radars
    blocks = QcqpInstance(factor.d_mat.reshape(k, k, -1), factor.columns.reshape(k, k).T,
                          factor.beta_max)
    return blocks.objective(theta)


def sum_power(theta: np.ndarray, scenario: Scenario) -> float:
    """Sum of the received signal powers over all radars, in watts."""
    return float(scenario.factor.objective(_check_amplitudes(theta, scenario))[0])
