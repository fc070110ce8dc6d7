"""Target-side sensing: snapshots, MUSIC arrival angles, gain estimation.

The cross-shaped sensing array records the radars' probing pulses; subspace
processing recovers each radar's arrival direction and a least-squares pass
recovers the per-radar beamformed signals, whose mean pulse power estimates
the squared beamforming gains up to the common transmit power.  That scale
ambiguity is harmless downstream because the reflection designs are
invariant to a uniform gain rescaling.  A sensing batch is one T x L x S
array (trial, sensing element, snapshot), and :func:`music_aoa` and
:func:`sense` return one result per trial; a single scenario is the
one-element case (``sense([scenario], n, [seed])[0]``).  Every steering
vector comes from :func:`~irstealth.arrays.cssa_responses`.

Elevation is searched over [0, pi/2) only: a planar array cannot tell the
sign of the elevation, so the nonnegative representative is reported.  Each
scenario's coarse scan projects one cached steering grid per array,
wavelength and step onto its signal subspace in one matrix product; the
peaks of a few scenarios are then refined in lockstep, each to the argmax
of a 100-times finer lattice found by branch and bound on a bound of how
fast the spectrum can change, and that point is the reported angle.  The
gain scaling assumes one transmit power, interval and pulse for all
radars, which :func:`sense` enforces.
"""

from __future__ import annotations

import functools

import numpy as np

from .arrays import AnglePair, ArrayGeometry, cssa_responses
from .config import ConfigError
from .power_model import chirp_waveform


class EstimationError(RuntimeError):
    """Fewer spectrum peaks than requested sources; ``peaks`` holds those found."""

    def __init__(self, message, peaks):
        super().__init__(message)
        self.peaks = peaks


def collect_snapshots(scenarios, n_snapshots: int, seeds) -> np.ndarray:
    """Sensing-array samples of T scenarios, shape T x L x S: S uniform
    samples over each scenario's common pulse window (the overlap of its
    radars' pulses) of the steering-matrix mix of the beamformed pulses plus
    white noise, scenario t's from ``seeds[t]``.  The scenarios share one
    geometry, its steering matrix and its gains."""
    if n_snapshots < 1:
        raise ValueError(f"need at least one snapshot, got {n_snapshots}")
    geometry, target = scenarios[0].geometry, scenarios[0].target
    if any(scenario.geometry is not geometry for scenario in scenarios):
        raise ValueError("a sensing batch needs scenarios drawn from one geometry")
    steering = steering_matrix(target.cssa_geometry, geometry.wavelength,
                               geometry.true_angles)
    batch = []
    for scenario, seed in zip(scenarios, seeds, strict=True):
        radars = scenario.radars
        t_lo = max(r.pulse_epoch for r in radars)
        t_hi = min(r.pulse_epoch + r.pulse for r in radars)
        if t_hi <= t_lo:
            raise ValueError("radar pulses do not overlap; no common sensing window")
        times = t_lo + (t_hi - t_lo) * np.arange(n_snapshots) / n_snapshots
        signals = np.stack([gain * chirp_waveform(times, radar)
                            for gain, radar in zip(geometry.gains, radars)])
        samples = steering @ signals
        if target.cssa_noise > 0:
            rng = np.random.default_rng(seed)
            noise = rng.standard_normal(samples.shape) + 1j * rng.standard_normal(samples.shape)
            samples = samples + np.sqrt(target.cssa_noise / 2.0) * noise
        batch.append(samples)
    return np.stack(batch)


def steering_matrix(geometry: ArrayGeometry, wavelength: float, angles) -> np.ndarray:
    """Cross-array steering matrix with one column per angle pair."""
    return cssa_responses(geometry, np.array([p.azimuth for p in angles]),
                          np.array([p.elevation for p in angles]), wavelength)


@functools.lru_cache(maxsize=8)
def _coarse_grid(geometry: ArrayGeometry, wavelength: float, grid_step: float):
    """Coarse scan angles and their steering vectors, shape (L, n_az * n_el).

    The grid depends only on the array, the wavelength and the step, so it
    is built once per combination and shared read-only between calls.
    """
    steps = int(np.floor((np.pi / 2 - 1e-9) / grid_step))
    azimuths = np.arange(-steps, steps + 1) * grid_step
    elevations = np.arange(0, steps + 1) * grid_step
    steering = cssa_responses(geometry, azimuths[:, None], elevations[None, :], wavelength)
    steering = steering.reshape(steering.shape[0], -1)
    for array in (azimuths, elevations, steering):
        array.setflags(write=False)
    return azimuths, elevations, steering


def _subspaces(z: np.ndarray, k_sources: int) -> tuple[np.ndarray, np.ndarray]:
    """Signal and noise bases E_s, E_n of one trial's L x S samples: the sample
    covariance's eigenvectors of the ``k_sources`` largest and of the
    remaining eigenvalues."""
    cov = z @ z.conj().T / z.shape[1]
    _, vectors = np.linalg.eigh(cov)
    split = z.shape[0] - k_sources
    return vectors[:, split:], vectors[:, :split]


def _spectrum(noise_basis: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """Pseudo-spectrum 1/||E_n^H a||^2 of steering vectors along the first axis."""
    flat = steering.reshape(steering.shape[0], -1)
    projections = noise_basis.conj().T @ flat
    power = projections.real ** 2 + projections.imag ** 2
    return (1.0 / np.sum(power, axis=0)).reshape(steering.shape[1:])


def _local_peaks(spectrum: np.ndarray) -> list[tuple[int, int]]:
    padded = np.full((spectrum.shape[0] + 2, spectrum.shape[1] + 2), -np.inf)
    padded[1:-1, 1:-1] = spectrum
    # A point is a peak iff it is at least the maximum of its 3 x 3 window,
    # taken over rows and then over columns (a NaN anywhere in it is none).
    rows = np.maximum(np.maximum(padded[:-2], padded[1:-1]), padded[2:])
    window = np.maximum(np.maximum(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])
    is_peak = spectrum >= window
    # Largest first; a stable sort keeps equal peaks in row-major order.
    order = np.argsort(-spectrum[is_peak], kind="stable")
    return [tuple(ij) for ij in np.argwhere(is_peak)[order]]


def music_aoa(samples: np.ndarray, geometry: ArrayGeometry, wavelength: float,
              k_sources: int, grid_step: float) -> list[tuple[AnglePair, ...]]:
    """Source directions of each trial of T x L x S ``samples`` of the sensing
    array ``geometry`` at ``wavelength``, as its largest pseudo-spectrum peaks.

    Each trial's sample covariance is eigen-decomposed, the noise subspace
    spans the smallest eigenvectors, and the pseudo-spectrum is scanned on a
    coarse angle grid of the given step (its steering vectors are cached per
    array, wavelength and step; the scan is one matrix product with the K
    signal eigenvectors).  Peaks closer than two grid steps merge into the
    larger one.  The trials are scanned alone, in order (the first with too
    few peaks raises), and all their kept peaks are refined together, each
    to the argmax of a local lattice one hundred times finer (found by
    branch and bound, :func:`_refine_peaks`); that lattice point is the
    estimate.
    """
    n_elem = geometry.num_elements
    if samples.ndim != 3 or samples.shape[1] != n_elem:
        raise ValueError(f"need samples of trials x {n_elem} elements x snapshots")
    if k_sources >= n_elem:
        raise ValueError(f"need fewer sources ({k_sources}) than sensors ({n_elem})")
    if k_sources < 1:
        raise ValueError("need at least one source")
    if samples.shape[2] < k_sources:
        raise ValueError("need at least as many snapshots as sources")
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    grid = _coarse_grid(geometry, wavelength, grid_step)
    peaks = [peak for z in samples for peak in _scan(z, k_sources, *grid)]
    refined = iter(_refine_peaks(geometry, wavelength, peaks, grid_step, grid_step / 100.0))
    return [tuple(AnglePair(*next(refined)) for _ in range(k_sources)) for _ in samples]


def _scan(z: np.ndarray, k_sources: int, azimuths, elevations, steering):
    """Kept coarse-spectrum peaks of one trial's samples as (E_n, azimuth, elevation)."""
    signal_basis, noise_basis = _subspaces(z, k_sources)
    # Steering entries have unit modulus, so ||E_n^H a||^2 = L - ||E_s^H a||^2:
    # K projections per angle instead of L - K.  The difference is kept
    # positive, so an exact null stays the largest value.
    projections = signal_basis.conj().T @ steering
    noise = steering.shape[0] - np.sum(projections.real ** 2 + projections.imag ** 2, axis=0)
    spectrum = (1.0 / np.maximum(noise, np.finfo(float).tiny)).reshape(azimuths.size, -1)
    kept: list[tuple[int, int]] = []
    for ij in _local_peaks(spectrum):
        if any(abs(ij[0] - p[0]) < 2 and abs(ij[1] - p[1]) < 2 for p in kept):
            continue
        kept.append(ij)
        if len(kept) == k_sources:
            break
    if len(kept) < k_sources:
        found = tuple(AnglePair(float(azimuths[i]), float(elevations[j])) for i, j in kept)
        raise EstimationError(f"found {len(kept)} peaks, expected {k_sources}", found)
    return [(noise_basis, azimuths[i], elevations[j]) for i, j in kept]


# Coarse scan step of :func:`sense`.
_GRID_STEP = np.deg2rad(1.0)

# Side, in lattice points, of the first boxes of the bounded refine (a
# power of two: boxes are halved down to single points).
_REFINE_BOX = 16

# Most boxes per round of a lockstep refine: more cost memory for little speed.
_REFINE_BUDGET = 2048


def _block_radius(geometry, wavelength, az, el, d_az, d_el):
    """Bound on ||a(az', el') - a(az, el)|| for |az' - az| <= d_az, |el' - el| <= d_el.

    Element phases are pi * scale * offset * c, with c = cos(el) cos(az) on
    the x arm and cos(el) sin(az) on the y arm, and
    |exp(i x) - exp(i y)| <= |x - y|.  The change of each c is bounded by
    the largest partial derivatives over the box.
    """
    scale = 2.0 * geometry.spacing / wavelength
    off_x = np.arange(geometry.nx) - (geometry.nx - 1) / 2
    off_y = np.arange(geometry.ny) - (geometry.ny - 1) / 2
    sin_az = np.minimum(np.abs(np.sin(az)) + d_az, 1.0)
    cos_az = np.minimum(np.abs(np.cos(az)) + d_az, 1.0)
    sin_el = np.minimum(np.abs(np.sin(el)) + d_el, 1.0)
    dcx = sin_az * d_az + sin_el * d_el
    dcy = cos_az * d_az + sin_el * d_el
    return np.pi * scale * np.sqrt(np.sum(off_x ** 2) * dcx ** 2
                                   + np.sum(off_y ** 2) * dcy ** 2)


def _refine_peaks(geometry, wavelength, peaks, coarse, fine):
    """Exhaustive argmax (ties to the lowest flat index) of the fine lattice
    within one coarse step of each (E_n, azimuth, elevation) peak.

    The spectrum is 1 / h^2 with h = ||E_n^H a||, and h moves by at most
    ||a' - a|| (E_n has orthonormal columns), so the h at a box's centre
    less :func:`_block_radius` bounds h over the box.  Square boxes tile
    each lattice; each round evaluates their centres, drops every box whose
    bound exceeds the smallest h its peak has found and splits the rest into
    four, down to the single points that hold the argmax.  The peaks run in
    lockstep, one response call per round for up to :data:`_REFINE_BUDGET`
    boxes, but one projection per peak over its boxes, in a fixed order.
    """
    half = np.pi / 2
    az0, el0 = (np.array([peak[axis] for peak in peaks], dtype=float) for axis in (1, 2))
    az_lo = np.maximum(az0 - coarse, -half + fine)
    el_lo = np.maximum(el0 - coarse, 0.0)
    size_az = np.rint((np.minimum(az0 + coarse, half - fine) - az_lo) / fine).astype(int) + 1
    size_el = np.rint((np.minimum(el0 + coarse, half - fine) - el_lo) / fine).astype(int) + 1
    # Box starts in the order of a row-major scan of each peak's lattice.
    starts = np.arange(0, max(size_az.max(), size_el.max()), _REFINE_BOX)
    sa, se = (np.tile(g.ravel(), len(peaks)) for g in np.meshgrid(starts, starts, indexing="ij"))
    parts = [(np.repeat(np.arange(len(peaks)), starts.size ** 2), sa, se, _REFINE_BOX)]
    best, result = np.full(len(peaks), -np.inf), [None] * len(peaks)
    while parts:
        owner, sa, se, side = parts.pop()
        inside = (sa < size_az[owner]) & (se < size_el[owner])
        owner, sa, se = owner[inside], sa[inside], se[inside]
        if owner.size > _REFINE_BUDGET and owner[0] != owner[-1]:
            cut = np.searchsorted(owner, (owner[0] + owner[-1] + 1) // 2)
            parts += [(owner[cut:], sa[cut:], se[cut:], side),
                      (owner[:cut], sa[:cut], se[:cut], side)]
            continue
        # A box of the given side starting at (sa, se) holds the lattice
        # points up to side - 1 further along each axis; its centre, clipped
        # to the lattice, lies within side // 2 of each of them.
        ca = np.minimum(sa + side // 2, size_az[owner] - 1)
        ce = np.minimum(se + side // 2, size_el[owner] - 1)
        az, el = az_lo[owner] + fine * ca, el_lo[owner] + fine * ce
        steering = cssa_responses(geometry, az, el, wavelength)
        bounds = np.searchsorted(owner, np.arange(owner[0], owner[-1] + 2))
        values = np.empty(owner.size)
        for k, lo, hi in zip(range(owner[0], owner[-1] + 1), bounds[:-1], bounds[1:]):
            values[lo:hi] = _spectrum(peaks[k][0], steering[:, lo:hi])
            top = values[lo:hi].max()
            best[k] = max(best[k], top)
            if side == 1:  # the last round's argmax, ties to the lowest flat index
                flat = (ca[lo:hi] * size_el[k] + ce[lo:hi])[values[lo:hi] == top]
                i, j = divmod(int(flat.min()), size_el[k])
                result[k] = (float(np.clip(az_lo[k] + fine * i, -half + fine, half - fine)),
                             float(el_lo[k] + fine * j))
        if side > 1:
            floor = 1.0 / np.sqrt(values) - _block_radius(
                geometry, wavelength, az, el, side // 2 * fine, side // 2 * fine)
            # The margin covers rounding in the computed h (about 1e-15 * ||a||).
            keep = floor <= 1.0 / np.sqrt(best[owner]) + 1e-9
            side //= 2
            parts.append((np.repeat(owner[keep], 4),
                          (sa[keep, None] + np.array([0, 0, side, side])).ravel(),
                          (se[keep, None] + np.array([0, side, 0, side])).ravel(), side))
    return result


def ls_recover(samples: np.ndarray, a_matrix: np.ndarray) -> np.ndarray:
    """Least-squares source signals (A^H A)^{-1} A^H z per snapshot z, a column
    of one trial's L x S ``samples``.

    Raises ``numpy.linalg.LinAlgError`` when the steering matrix is rank
    deficient (source directions too close to separate).
    """
    recovered, _, _, singulars = np.linalg.lstsq(a_matrix, samples, rcond=None)
    if singulars[-1] <= 1e-10 * singulars[0]:
        raise np.linalg.LinAlgError("steering matrix is rank deficient; "
                                    "source directions too close")
    return recovered


def gain_estimate(recovered: np.ndarray, pri: float, pulse: float) -> np.ndarray:
    """Power-scaled squared gains from the mean pulse power of recovered signals.

    Averages |s_k(t)|^2 over the sampled pulse window and rescales by
    pulse/pri, matching the per-interval signal energy; without noise this
    equals the transmit power times the squared beamforming gain exactly.
    By reciprocity one estimate per radar serves both link directions.
    """
    if not 0 < pulse < pri:
        raise ValueError(f"need 0 < pulse < pri, got {pulse} / {pri}")
    recovered = np.atleast_2d(np.asarray(recovered))
    return pulse / pri * np.mean(np.abs(recovered) ** 2, axis=1)


def sense(scenarios, n_snapshots: int,
          seeds) -> list[tuple[tuple[AnglePair, ...], np.ndarray]]:
    """Estimated angles and squared gains (:func:`gain_estimate`) of scenarios
    drawn from one geometry, scenario t's noise from ``seeds[t]``.

    Each pair can be fed to :meth:`~irstealth.power_model.ScenarioGeometry.factor`
    as ``angles`` and ``g2``.  The gains read the first radar's interval and
    pulse and carry one transmit power, so radars that differ in
    ``tx_power``, ``pri`` or ``pulse`` raise a :class:`ConfigError` naming
    ``radars[i].<field>``; so does a second radar of bandwidth 0, since two
    unchirped pulses are one tone.  All scenarios are scanned in order (the first
    with too few peaks raises), their peaks refined in lockstep and their
    angles steered in one call.
    """
    first = scenarios[0].radars[0]
    for i, radar in enumerate(scenarios[0].radars[1:], start=1):
        for name in ("tx_power", "pri", "pulse"):
            if getattr(radar, name) != getattr(first, name):
                raise ConfigError(f"radars[{i}].{name}", "sensing needs every radar "
                                  f"to share radars[0].{name}")
    unchirped = [i for i, radar in enumerate(scenarios[0].radars) if radar.bandwidth == 0]
    if len(unchirped) > 1:
        raise ConfigError(f"radars[{unchirped[1]}].bandwidth", "sensing needs distinct "
                          f"pulses, but radars[{unchirped[0]}] is unchirped (bandwidth 0) too")
    samples, k = collect_snapshots(scenarios, n_snapshots, seeds), scenarios[0].num_radars
    cssa, wavelength = scenarios[0].target.cssa_geometry, scenarios[0].wavelength
    estimates = music_aoa(samples, cssa, wavelength, k, _GRID_STEP)
    steering = steering_matrix(cssa, wavelength, [pair for angles in estimates for pair in angles])
    return [(angles, gain_estimate(ls_recover(z, steering[:, t * k:(t + 1) * k]),
                                   first.pri, first.pulse))
            for t, (z, angles) in enumerate(zip(samples, estimates))]
