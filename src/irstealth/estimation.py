"""Target-side sensing: snapshots, MUSIC arrival angles, gain estimation.

The cross-shaped sensing array records the radars' probing pulses; subspace
processing recovers each radar's arrival direction and a least-squares pass
recovers the per-radar beamformed signals, whose mean pulse power estimates
the squared beamforming gains up to the common transmit power.  That scale
ambiguity is harmless downstream because the reflection designs are
invariant to a uniform gain rescaling.  Every steering vector comes from
:func:`~irstealth.arrays.cssa_responses`.

Elevation is searched over [0, pi/2) only: a planar array cannot tell the
sign of the elevation, so the nonnegative representative is reported.  The
coarse scan reuses one cached steering grid per array, wavelength and step
and projects it onto the signal subspace in one matrix product; each peak
is then refined to the argmax of a 100-times finer lattice, found by branch
and bound on a bound of how fast the spectrum can change, and that lattice
point is the reported angle.  The gain scaling assumes one transmit power,
interval and pulse for all radars, which :func:`estimate_parameters`
enforces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .arrays import AnglePair, ArrayGeometry, cssa_responses
from .config import ConfigError
from .power_model import (Scenario, angles_at_target, beamforming_gains,
                          chirp_waveform)


class EstimationError(RuntimeError):
    """Fewer spectrum peaks than requested sources; ``peaks`` holds those found."""

    def __init__(self, message, peaks):
        super().__init__(message)
        self.peaks = peaks


@dataclass(frozen=True, eq=False)
class SnapshotSet:
    """Sensing-array samples (elements by snapshots) with their time stamps."""

    samples: np.ndarray
    sample_times: np.ndarray
    geometry: ArrayGeometry
    wavelength: float

    def __post_init__(self):
        if self.samples.shape[0] != self.geometry.num_elements:
            raise ValueError("sample rows must match the sensing-array size")
        if self.samples.shape[1] != self.sample_times.size:
            raise ValueError("one time stamp per snapshot required")
        if self.samples.shape[1] < 1:
            raise ValueError("need at least one snapshot")


@dataclass(frozen=True, eq=False)
class AoaEstimate:
    """Detected arrival angles plus the sampled pseudo-spectrum they came from."""

    angles: tuple[AnglePair, ...]
    spectrum: np.ndarray
    azimuth_grid: np.ndarray
    elevation_grid: np.ndarray


def collect_snapshots(scenario: Scenario, n_snapshots: int, seed) -> SnapshotSet:
    """Sample the sensing array uniformly over the common pulse window.

    Each snapshot is the steering-matrix mix of the radars' beamformed
    pulses plus white noise; the window is the overlap of all radars' pulse
    intervals so every pulse is active at every sample.
    """
    if n_snapshots < 1:
        raise ValueError(f"need at least one snapshot, got {n_snapshots}")
    radars = scenario.radars
    t_lo = max(r.pulse_epoch for r in radars)
    t_hi = min(r.pulse_epoch + r.pulse for r in radars)
    if t_hi <= t_lo:
        raise ValueError("radar pulses do not overlap; no common sensing window")
    times = t_lo + (t_hi - t_lo) * np.arange(n_snapshots) / n_snapshots

    target = scenario.target
    arrivals = [angles_at_target(scenario, k) for k in range(scenario.num_radars)]
    steering = _responses(target.cssa_geometry, scenario.wavelength, arrivals)
    signals = np.stack([gain * chirp_waveform(times, radar)
                        for gain, radar in zip(beamforming_gains(scenario), radars)])
    samples = steering @ signals
    if target.cssa_noise > 0:
        rng = np.random.default_rng(seed)
        shape = samples.shape
        noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        samples = samples + np.sqrt(target.cssa_noise / 2.0) * noise
    return SnapshotSet(samples, times, target.cssa_geometry, scenario.wavelength)


def _responses(geometry: ArrayGeometry, wavelength: float, angles) -> np.ndarray:
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


def _subspaces(snapshots: SnapshotSet, k_sources: int) -> tuple[np.ndarray, np.ndarray]:
    """Signal and noise bases E_s, E_n: the sample covariance's eigenvectors of
    the ``k_sources`` largest and of the remaining eigenvalues."""
    z = snapshots.samples
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
    center = padded[1:-1, 1:-1]
    is_peak = np.ones_like(spectrum, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            neighbor = padded[1 + di: 1 + di + spectrum.shape[0],
                              1 + dj: 1 + dj + spectrum.shape[1]]
            is_peak &= center >= neighbor
    coords = np.argwhere(is_peak)
    coords = sorted(coords, key=lambda ij: -spectrum[ij[0], ij[1]])
    return [tuple(ij) for ij in coords]


def music_aoa(snapshots: SnapshotSet, k_sources: int, grid_step: float) -> AoaEstimate:
    """Estimate source directions as the largest pseudo-spectrum peaks.

    The sample covariance is eigen-decomposed, the noise subspace spans the
    smallest eigenvectors, and the pseudo-spectrum is scanned on a coarse
    angle grid of the given step (its steering vectors are cached per
    array, wavelength and step; the scan is one matrix product with the K
    signal eigenvectors).  Peaks closer than two grid steps merge into the
    larger one.  Each kept peak is refined to the argmax of a local lattice
    one hundred times finer (found by branch and bound,
    :func:`_refine_peak`), and that lattice point is the estimate.
    """
    n_elem = snapshots.geometry.num_elements
    if k_sources >= n_elem:
        raise ValueError(f"need fewer sources ({k_sources}) than sensors ({n_elem})")
    if k_sources < 1:
        raise ValueError("need at least one source")
    if snapshots.samples.shape[1] < k_sources:
        raise ValueError("need at least as many snapshots as sources")
    if grid_step <= 0:
        raise ValueError("grid step must be positive")

    azimuths, elevations, steering = _coarse_grid(snapshots.geometry,
                                                  snapshots.wavelength, grid_step)
    signal_basis, noise_basis = _subspaces(snapshots, k_sources)
    # Steering entries have unit modulus, so ||E_n^H a||^2 = L - ||E_s^H a||^2:
    # K projections per angle instead of L - K.  The difference is kept
    # positive, so an exact null stays the largest value.
    projections = signal_basis.conj().T @ steering
    noise = steering.shape[0] - np.sum(projections.real ** 2 + projections.imag ** 2, axis=0)
    spectrum = (1.0 / np.maximum(noise, np.finfo(float).tiny)).reshape(azimuths.size,
                                                                      elevations.size)

    kept: list[tuple[int, int]] = []
    for ij in _local_peaks(spectrum):
        if any(abs(ij[0] - p[0]) < 2 and abs(ij[1] - p[1]) < 2 for p in kept):
            continue
        kept.append(ij)
        if len(kept) == k_sources:
            break
    if len(kept) < k_sources:
        found = tuple(AnglePair(float(azimuths[i]), float(elevations[j]))
                      for i, j in kept)
        raise EstimationError(f"found {len(kept)} peaks, expected {k_sources}", found)

    fine = grid_step / 100.0
    angles = []
    for i, j in kept:
        az, el = _refine_peak(noise_basis, snapshots, azimuths[i], elevations[j],
                              grid_step, fine)
        angles.append(AnglePair(az, el))
    return AoaEstimate(tuple(angles), spectrum, azimuths, elevations)


# Coarse scan step of :func:`estimate_parameters`.
_GRID_STEP = np.deg2rad(1.0)

# Side, in lattice points, of the first boxes of the bounded refine (a
# power of two: boxes are halved down to single points).
_REFINE_BOX = 16


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


def _refine_peak(noise_basis, snapshots, az0, el0, coarse, fine):
    """Best point of the fine lattice within one coarse step of a peak.

    The result is the exhaustive lattice argmax, found by branch and bound
    instead of a scan of the whole lattice.  The spectrum is 1 / h^2 with
    h = ||E_n^H a||, and h moves by at most ||a' - a|| (E_n has orthonormal
    columns), so the h at a box's centre less :func:`_block_radius` bounds
    h over the box.  Square boxes tile the lattice; each round evaluates
    their centres, drops every box whose bound exceeds the smallest h found
    (it cannot hold the maximum) and splits the rest into four, down to
    single points.
    """
    half = np.pi / 2
    az_lo = max(az0 - coarse, -half + fine)
    az_hi = min(az0 + coarse, half - fine)
    el_lo = max(el0 - coarse, 0.0)
    el_hi = min(el0 + coarse, half - fine)
    az_grid = az_lo + fine * np.arange(int(round((az_hi - az_lo) / fine)) + 1)
    el_grid = el_lo + fine * np.arange(int(round((el_hi - el_lo) / fine)) + 1)
    size = (az_grid.size, el_grid.size)
    local = np.full(size, -np.inf)

    def scan(ia, ie):
        local[ia, ie] = _spectrum(noise_basis, cssa_responses(
            snapshots.geometry, az_grid[ia], el_grid[ie], snapshots.wavelength))

    # A box of the given side starting at (sa, se) holds the lattice points
    # up to side - 1 further along each axis; its centre, clipped to the
    # lattice, lies within side // 2 of each of them.
    side = _REFINE_BOX
    sa, se = (grid.ravel() for grid in np.meshgrid(np.arange(0, size[0], side),
                                                   np.arange(0, size[1], side),
                                                   indexing="ij"))
    while True:
        ca, ce = np.minimum(sa + side // 2, size[0] - 1), np.minimum(se + side // 2, size[1] - 1)
        scan(ca, ce)
        if side == 1:
            break
        reach = side // 2 * fine
        floor = 1.0 / np.sqrt(local[ca, ce]) - _block_radius(
            snapshots.geometry, snapshots.wavelength, az_grid[ca], el_grid[ce], reach, reach)
        # The margin covers rounding in the computed h (about 1e-15 * ||a||).
        keep = floor <= 1.0 / np.sqrt(local.max()) + 1e-9
        side //= 2
        sa = (sa[keep, None] + np.array([0, 0, side, side])).ravel()
        se = (se[keep, None] + np.array([0, side, 0, side])).ravel()
        inside = (sa < size[0]) & (se < size[1])
        sa, se = sa[inside], se[inside]

    i, j = np.unravel_index(int(np.argmax(local)), size)
    return float(np.clip(az_grid[i], -half + fine, half - fine)), float(el_grid[j])


def steering_matrix(snapshots: SnapshotSet, angles) -> np.ndarray:
    """Sensing-array steering matrix with one column per source direction."""
    return _responses(snapshots.geometry, snapshots.wavelength, angles)


def ls_recover(snapshots: SnapshotSet, a_matrix: np.ndarray) -> np.ndarray:
    """Least-squares source signals (A^H A)^{-1} A^H z per snapshot.

    Raises ``numpy.linalg.LinAlgError`` when the steering matrix is rank
    deficient (source directions too close to separate).
    """
    recovered, _, _, singulars = np.linalg.lstsq(a_matrix, snapshots.samples, rcond=None)
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


def estimate_parameters(scenario: Scenario, n_snapshots: int = 64, seed=0
                        ) -> tuple[AoaEstimate, np.ndarray]:
    """Full sensing pass: snapshots, arrival angles, then squared-gain estimates.

    The estimates (:func:`gain_estimate`) follow the returned angle
    ordering, so the pair can be fed directly to
    :func:`~irstealth.power_model.link_factor` as ``angles`` and ``g2``.
    The gain scaling reads the first radar's interval and pulse, and the
    estimates carry one transmit power for all radars, so every radar must
    share ``tx_power``, ``pri`` and ``pulse``; a scenario that does not is
    rejected with a :class:`~irstealth.config.ConfigError` naming the first
    differing ``radars[i].<field>``.
    """
    first = scenario.radars[0]
    for i, radar in enumerate(scenario.radars[1:], start=1):
        for name in ("tx_power", "pri", "pulse"):
            if getattr(radar, name) != getattr(first, name):
                raise ConfigError(f"radars[{i}].{name}", "sensing needs every radar "
                                  f"to share radars[0].{name}")
    snapshots = collect_snapshots(scenario, n_snapshots, seed)
    aoa = music_aoa(snapshots, scenario.num_radars, _GRID_STEP)
    a_matrix = steering_matrix(snapshots, aoa.angles)
    recovered = ls_recover(snapshots, a_matrix)
    return aoa, gain_estimate(recovered, first.pri, first.pulse)
