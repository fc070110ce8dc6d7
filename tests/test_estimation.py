import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irstealth.arrays import AnglePair, ArrayGeometry, ArrayKind, cssa_responses
from irstealth.config import (ConfigError, build_geometry, build_scenario,
                              multi_radar_config, single_radar_config)
from irstealth.estimation import (EstimationError, collect_snapshots, gain_estimate,
                                  ls_recover, music_aoa, sense, steering_matrix,
                                  _block_radius, _coarse_grid, _refine_peaks, _scan,
                                  _spectrum, _subspaces)
from irstealth.optimizers import codebook_designs, mmse_designs, pgd_designs
from irstealth.power_model import link_factor, sum_power

GRID = np.deg2rad(1.0)


def noiseless(scenario):
    target = dataclasses.replace(scenario.target, cssa_noise=0.0)
    return dataclasses.replace(scenario, target=target)


def sensing_array(scenario):
    """The cross array and wavelength that sense ``scenario``."""
    return scenario.target.cssa_geometry, scenario.wavelength


def coplanar_multi_config(**kwargs):
    # Radars at azimuths 0 and +-45 degrees in the target's plane: all true
    # angles land exactly on the search lattice.
    return multi_radar_config(lateral=0.0, **kwargs)


@pytest.fixture(scope="module")
def clean_single(single_scenario):
    return noiseless(single_scenario)


@pytest.fixture(scope="module")
def clean_multi():
    return noiseless(build_scenario(coplanar_multi_config()))


class TestCollectSnapshots:
    def test_single_source_snapshots_stay_parallel(self, clean_single):
        z = collect_snapshots([clean_single], 16, [0])[0]
        reference = z[:, :1]
        projector = reference @ reference.conj().T / np.vdot(reference, reference)
        np.testing.assert_allclose(projector @ z, z, atol=1e-12)

    def test_noiseless_covariance_rank_equals_sources(self, clean_multi):
        z = collect_snapshots([clean_multi], 32, [0])[0]
        cov = z @ z.conj().T / 32
        eigvals = np.linalg.eigvalsh(cov)
        assert eigvals[-3] > 1e-10 * eigvals[-1]
        assert eigvals[-4] <= 1e-10 * eigvals[-1]

    def test_seeded_determinism(self, multi_scenario):
        a = collect_snapshots([multi_scenario], 8, [99])
        b = collect_snapshots([multi_scenario], 8, [99])
        np.testing.assert_array_equal(a, b)

    def test_batch_stacks_each_scenario_alone(self):
        # Trial t of a batch is scenario t collected alone, bit for bit.
        geometry = build_geometry(multi_radar_config(seed=4))
        scenarios = [geometry.draw(seed) for seed in range(10, 14)]
        seeds = list(range(20, 24))
        batch = collect_snapshots(scenarios, 16, seeds)
        assert batch.shape == (4, geometry.target.cssa_geometry.num_elements, 16)
        for z, scenario, seed in zip(batch, scenarios, seeds, strict=True):
            assert np.array_equal(z, collect_snapshots([scenario], 16, [seed])[0])

    def test_needs_snapshots(self, clean_single):
        with pytest.raises(ValueError):
            collect_snapshots([clean_single], 0, [0])


class TestMusicAoa:
    def test_single_source_on_grid_is_exact(self, clean_single):
        samples = collect_snapshots([clean_single], 16, [0])
        estimate = music_aoa(samples, *sensing_array(clean_single), 1, GRID)[0]
        truth = clean_single.geometry.true_angles[0]
        assert estimate[0].azimuth == pytest.approx(truth.azimuth, abs=1e-12)
        assert estimate[0].elevation == pytest.approx(0.0, abs=1e-12)

    def test_three_sources_recovered(self, clean_multi):
        samples = collect_snapshots([clean_multi], 64, [1])
        estimate = music_aoa(samples, *sensing_array(clean_multi), 3, GRID)[0]
        got = sorted(a.azimuth for a in estimate)
        want = sorted(clean_multi.geometry.true_angles[k].azimuth for k in range(3))
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_noisy_accuracy_at_20db(self):
        # 95th-percentile azimuth error stays within half a degree.
        errors = []
        for seed in range(60):
            config = single_radar_config(seed=seed)
            scenario = build_scenario(config)
            signal = _snapshot_signal_power(scenario)
            target = dataclasses.replace(scenario.target,
                                         cssa_noise=signal / 100.0)
            scenario = dataclasses.replace(scenario, target=target)
            samples = collect_snapshots([scenario], 64, [seed])
            estimate = music_aoa(samples, *sensing_array(scenario), 1, GRID)[0]
            truth = scenario.geometry.true_angles[0]
            errors.append(abs(estimate[0].azimuth - truth.azimuth))
        assert np.quantile(errors, 0.95) <= np.deg2rad(0.5)

    def test_too_many_sources_rejected(self, clean_multi):
        samples = collect_snapshots([clean_multi], 16, [0])
        with pytest.raises(ValueError):
            music_aoa(samples, *sensing_array(clean_multi), 9, GRID)

    def test_missing_peaks_reported(self, clean_single):
        # One dominant source scanned on a very coarse grid: neighboring
        # grid maxima merge into a single peak, fewer than requested.
        samples = collect_snapshots([clean_single], 32, [0])
        with pytest.raises(EstimationError) as err:
            music_aoa(samples, *sensing_array(clean_single), 2, np.deg2rad(45.0))
        assert len(err.value.peaks) == 1

    def test_rejects_samples_of_another_array(self, clean_single):
        # One row per element of the given array, in a trials x rows x
        # snapshots batch.
        samples = collect_snapshots([clean_single], 16, [0])
        for wrong in (samples[:, :-1], samples[0]):
            with pytest.raises(ValueError, match="trials x 9 elements x snapshots"):
                music_aoa(wrong, *sensing_array(clean_single), 1, GRID)

    def test_noise_subspace_orthogonal_to_steering(self, clean_multi):
        z = collect_snapshots([clean_multi], 64, [2])[0]
        basis = _subspaces(z, 3)[1]
        truth = steering_matrix(*sensing_array(clean_multi), clean_multi.geometry.true_angles)
        assert np.linalg.norm(basis.conj().T @ truth) <= 1e-8

    def test_spectrum_invariant_to_sample_scaling(self, clean_multi):
        z = collect_snapshots([clean_multi], 64, [3])[0]
        az = np.deg2rad(np.arange(-60, 61, 5, dtype=float))
        el = np.deg2rad(np.arange(0, 31, 5, dtype=float))
        cssa, wavelength = sensing_array(clean_multi)
        steering = cssa_responses(cssa, az[:, None], el[None, :], wavelength)
        spec_a = _spectrum(_subspaces(z, 3)[1], steering)
        spec_b = _spectrum(_subspaces(2.0 * z, 3)[1], steering)
        np.testing.assert_allclose(spec_b, spec_a, rtol=1e-9)

    def test_broadcast_responses_match_single_angle_response(self):
        # The coarse grid, the refine boxes and the steering matrix all take
        # their vectors from the broadcast response: each must be the
        # single-angle response at the same angle, bit for bit.
        geometry = ArrayGeometry(ArrayKind.CSSA, 5, 7, 0.0125)
        rng = np.random.default_rng(5)
        az = rng.uniform(-1.57, 1.57, 23)
        el = rng.uniform(0.0, 1.57, 11)
        grid = cssa_responses(geometry, az[:, None], el[None, :], 0.05)
        assert grid.shape == (geometry.num_elements, az.size, el.size)
        pairs = [AnglePair(a, e) for a, e in zip(az, el)]
        columns = steering_matrix(geometry, 0.05, pairs)
        for i, a in enumerate(az):
            for j, e in enumerate(el):
                single = cssa_responses(geometry, a, e, 0.05)
                assert np.array_equal(grid[:, i, j], single), (a, e)
        for column, pair in zip(columns.T, pairs):
            single = cssa_responses(geometry, pair.azimuth, pair.elevation, 0.05)
            assert np.array_equal(column, single), pair


def _snapshot_signal_power(scenario):
    gains = scenario.geometry.gains
    radar = scenario.radars[0]
    return abs(gains[0]) ** 2 * radar.tx_power * radar.pri / radar.pulse


class TestLsRecover:
    def test_noiseless_recovery_is_exact(self, clean_multi):
        z = collect_snapshots([clean_multi], 32, [0])[0]
        a_matrix = steering_matrix(*sensing_array(clean_multi),
                                   clean_multi.geometry.true_angles)
        recovered = ls_recover(z, a_matrix)
        gains = clean_multi.geometry.gains
        from irstealth.power_model import chirp_waveform
        # 32 uniform samples from the latest pulse epoch to the earliest pulse end.
        t_lo = max(r.pulse_epoch for r in clean_multi.radars)
        t_hi = min(r.pulse_epoch + r.pulse for r in clean_multi.radars)
        times = t_lo + (t_hi - t_lo) * np.arange(32) / 32
        expected = np.stack([gains[k] * chirp_waveform(times, clean_multi.radars[k])
                             for k in range(3)])
        np.testing.assert_allclose(recovered, expected, rtol=1e-10)

    def test_single_source_matched_filter_equivalence(self, clean_single):
        z = collect_snapshots([clean_single], 16, [0])[0]
        a_matrix = steering_matrix(*sensing_array(clean_single),
                                   [clean_single.geometry.true_angles[0]])
        recovered = ls_recover(z, a_matrix)
        matched = a_matrix[:, 0].conj() @ z / a_matrix.shape[0]
        np.testing.assert_allclose(recovered[0], matched, rtol=1e-10)

    def test_residual_orthogonal_to_steering(self, multi_scenario):
        z = collect_snapshots([multi_scenario], 32, [5])[0]
        a_matrix = steering_matrix(*sensing_array(multi_scenario),
                                   multi_scenario.geometry.true_angles)
        recovered = ls_recover(z, a_matrix)
        residual = z - a_matrix @ recovered
        assert np.max(np.abs(a_matrix.conj().T @ residual)) <= 1e-9 * np.max(np.abs(z))

    def test_rank_deficient_steering_rejected(self, clean_multi):
        z = collect_snapshots([clean_multi], 16, [0])[0]
        pair = clean_multi.geometry.true_angles[0]
        with pytest.raises(np.linalg.LinAlgError):
            ls_recover(z, steering_matrix(*sensing_array(clean_multi), [pair, pair]))


class TestGainEstimate:
    def test_noiseless_equals_power_scaled_gain(self, clean_multi):
        z = collect_snapshots([clean_multi], 64, [0])[0]
        a_matrix = steering_matrix(*sensing_array(clean_multi),
                                   clean_multi.geometry.true_angles)
        recovered = ls_recover(z, a_matrix)
        radar = clean_multi.radars[0]
        estimate = gain_estimate(recovered, radar.pri, radar.pulse)
        gains = clean_multi.geometry.gains
        expected = np.array([r.tx_power for r in clean_multi.radars]) \
            * np.abs(gains) ** 2
        np.testing.assert_allclose(estimate, expected, rtol=1e-10)

    def test_doubling_power_doubles_estimate(self, clean_single):
        doubled = dataclasses.replace(
            clean_single,
            radars=tuple(dataclasses.replace(r, tx_power=2.0 * r.tx_power)
                         for r in clean_single.radars))
        base = _pipeline_gains(clean_single)
        scaled = _pipeline_gains(doubled)
        np.testing.assert_allclose(scaled, 2.0 * base, rtol=1e-12)

    def test_noise_floor_mean(self):
        # Pure-noise snapshots: the estimate averages to the noise power
        # shaped by the steering pseudo-inverse and the pulse duty cycle.
        geometry = ArrayGeometry(ArrayKind.CSSA, 5, 5, 0.0125)
        angles = [AnglePair(0.0, 0.0), AnglePair(np.deg2rad(40.0), 0.0)]
        sigma2 = 1e-6
        pri, pulse = 100e-6, 30e-6
        estimates = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noise = np.sqrt(sigma2 / 2) * (rng.standard_normal((9, 64))
                                           + 1j * rng.standard_normal((9, 64)))
            a_matrix = steering_matrix(geometry, 0.05, angles)
            estimates.append(gain_estimate(ls_recover(noise, a_matrix),
                                           pri, pulse))
        a_matrix = steering_matrix(geometry, 0.05, angles)
        gram_inv = np.linalg.inv(a_matrix.conj().T @ a_matrix)
        analytic = pulse / pri * sigma2 * np.real(np.diag(gram_inv))
        np.testing.assert_allclose(np.mean(estimates, axis=0), analytic,
                                   rtol=0.1)

    def test_invalid_windows(self):
        with pytest.raises(ValueError):
            gain_estimate(np.ones((1, 4)), 1e-4, 2e-4)


def _pipeline_gains(scenario):
    return sense([scenario], 32, [4])[0][1]


class TestEndToEnd:
    def test_estimated_parameters_reproduce_true_design(self, clean_multi):
        angles, g2 = sense([clean_multi], 64, [6])[0]
        est_instance = link_factor(clean_multi, angles, g2)
        true_instance = link_factor(clean_multi)
        theta_est = pgd_designs(est_instance)[0].theta
        theta_true = pgd_designs(true_instance)[0].theta
        np.testing.assert_allclose(theta_est, theta_true, atol=1e-6)
        baseline = sum_power(np.zeros_like(theta_true), clean_multi)
        diff = abs(sum_power(theta_est, clean_multi)
                   - sum_power(theta_true, clean_multi))
        assert diff <= 1e-6 * baseline


class TestSense:
    @pytest.mark.parametrize("num_radars", [1, 3, 5])
    def test_batch_matches_each_scenario_alone(self, num_radars):
        # Bit for bit at every snapshot count, over more scenarios than one
        # chunk holds.  With three and five radars the first radar's peak sits
        # at elevation 0, where its refine lattice is cut to half the rows of
        # the others', so one batch holds lattices of different sizes.
        config = (single_radar_config(seed=4) if num_radars == 1 else
                  multi_radar_config(num_radars=num_radars, seed=4))
        geometry = build_geometry(config)
        scenarios = [geometry.draw(seed) for seed in range(10, 20)]
        seeds = list(range(20, 30))
        for n_snapshots in (16, 32, 64):
            batch = sense(scenarios, n_snapshots, seeds)
            elevations = [pair.elevation for angles, _ in batch for pair in angles]
            assert min(elevations) < GRID
            assert num_radars == 1 or max(elevations) > GRID
            for (angles, g2), scenario, seed in zip(batch, scenarios, seeds, strict=True):
                alone, g2_alone = sense([scenario], n_snapshots, [seed])[0]
                assert angles == alone
                assert np.array_equal(g2, g2_alone)

    def test_first_failing_scenario_raises_what_it_raises_alone(self):
        # Five radars at 16 snapshots: with noise seed 8 the scenario of seed 2
        # resolves 2 of 5 peaks and with noise seed 2 it resolves 3; seeds 1
        # and 3 resolve all five.  The failing scenario follows one good
        # scenario, then five.
        geometry = build_geometry(multi_radar_config(num_radars=5))
        ok, failing, later = geometry.draw(1), geometry.draw(2), geometry.draw(3)
        with pytest.raises(EstimationError) as alone:
            sense([failing], 16, [8])
        for before in (1, 5):
            with pytest.raises(EstimationError) as batch:
                sense([ok] * before + [failing, later, failing], 16, [8] * (before + 2) + [2])
            assert str(batch.value) == str(alone.value) == "found 2 peaks, expected 5"
            assert batch.value.peaks == alone.value.peaks

    def test_rejects_scenarios_of_different_geometries(self, clean_single):
        with pytest.raises(ValueError):
            sense([clean_single, noiseless(clean_single)], 16, [0, 1])


class TestGainScaleInvariance:
    DESIGNS = {"mmse": lambda factor: mmse_designs(factor)[0][1],
               "dft-codebook": lambda factor: codebook_designs(factor)[0],
               "pgd": lambda factor: pgd_designs(factor)[0]}

    @pytest.mark.parametrize("num_radars", [1, 3, 5])
    def test_designs_ignore_uniform_gain_scale(self, num_radars):
        # The sensed gains carry an unknown common power scale: scaling them
        # all by one factor scales the design objective and leaves each
        # design, and so its true power, where it was.
        for seed in range(1, 9):
            if num_radars == 1:
                config = single_radar_config(seed=seed)
            else:
                config = multi_radar_config(num_radars=num_radars, seed=seed)
            scenario = build_scenario(config)
            angles, g2 = sense([scenario], 64, [seed])[0]
            truth = link_factor(scenario)
            dark = truth.objective(np.zeros(truth.n_elements))[0]
            for name, design in self.DESIGNS.items():
                sensed = link_factor(scenario, angles, g2)
                base = truth.objective(design(sensed).theta)[0]
                for scale in (2.0 ** -20, 3.7, 2.0 ** 20):
                    factor = link_factor(scenario, angles, scale * g2)
                    power = truth.objective(design(factor).theta)[0]
                    assert abs(power - base) <= 1e-9 * dark, (seed, name, scale)


def exhaustive_refine(noise_basis, scenario, az0, el0, coarse, fine):
    """Refine oracle: argmax over the whole fine lattice within one coarse
    step of the peak, with the azimuth clipped into the admissible range."""
    half = np.pi / 2
    az_lo, az_hi = max(az0 - coarse, -half + fine), min(az0 + coarse, half - fine)
    el_lo, el_hi = max(el0 - coarse, 0.0), min(el0 + coarse, half - fine)
    az_grid = az_lo + fine * np.arange(int(round((az_hi - az_lo) / fine)) + 1)
    el_grid = el_lo + fine * np.arange(int(round((el_hi - el_lo) / fine)) + 1)
    cssa, wavelength = sensing_array(scenario)
    steering = cssa_responses(cssa, az_grid[:, None], el_grid[None, :], wavelength)
    local = 1.0 / np.sum(np.abs(np.einsum("lk,lae->kae", noise_basis.conj(),
                                          steering)) ** 2, axis=0)
    i, j = np.unravel_index(int(np.argmax(local)), local.shape)
    return float(np.clip(az_grid[i], -half + fine, half - fine)), float(el_grid[j])


def check_peaks(cases):
    """Refine the coarse-scan peaks of every (config, radars, snapshots, seed)
    case in one batch and check each against the exhaustive lattice argmax."""
    peaks = []
    for config, num_radars, n_snapshots, seed in cases:
        scenario = build_scenario(config)
        z = collect_snapshots([scenario], n_snapshots, [seed])[0]
        grid = _coarse_grid(*sensing_array(scenario), GRID)
        peaks += [(seed, num_radars, (noise_basis, scenario, az, el, GRID, GRID / 100))
                  for noise_basis, az, el in _scan(z, num_radars, *grid)]
    array = sensing_array(peaks[0][2][1])
    assert all(sensing_array(p[2][1]) == array for p in peaks)
    refined = _refine_peaks(*array, [(args[0], args[2], args[3]) for *_, args in peaks],
                            GRID, GRID / 100)
    for got, (seed, num_radars, args) in zip(refined, peaks, strict=True):
        assert got == exhaustive_refine(*args), (seed, num_radars, args[2], args[3])


class TestBoundedRefine:
    @pytest.mark.parametrize("block", range(4))
    def test_matches_exhaustive_lattice(self, block):
        # 25 seeded scenarios per block with one to five radars (the
        # single-radar ones alternate with the default single-radar setup)
        # at 16 and 64 snapshots, all refined in one batch: every refined
        # peak lands on the exhaustive search's point.
        cases = []
        for seed in range(25 * block, 25 * block + 25):
            num_radars = 1 + seed % 5
            if num_radars == 1 and seed % 2:
                config = single_radar_config(seed=seed)
            else:
                config = multi_radar_config(num_radars=num_radars, seed=seed)
            cases.append((config, num_radars, 16 if seed % 10 < 5 else 64, seed))
        check_peaks(cases)

    @pytest.mark.parametrize("seed", [114, 224, 259, 316, 364])
    def test_narrow_peaks(self, seed):
        # Peaks narrower than a tenth of the coarse step, where the lattice
        # holds several local maxima along the peak's ridge: a search that
        # climbs from sampled lattice points stopped on another one here.
        num_radars = 1 + seed % 5
        check_peaks([(multi_radar_config(num_radars=num_radars, seed=seed), num_radars,
                      16, seed)])

    @given(st.integers(1, 4), st.integers(1, 4), st.floats(0.2, 1.0),
           st.floats(-1.5, 1.5), st.floats(0.0, 1.5), st.floats(0.0, 0.05),
           st.floats(0.0, 0.05))
    @settings(max_examples=200, deadline=None)
    def test_block_radius_bounds_steering_change(self, hx, hy, spacing, az, el,
                                                 d_az, d_el):
        # Every corner and edge midpoint of the box moves the steering
        # vector by at most the radius.
        geometry = ArrayGeometry(ArrayKind.CSSA, 2 * hx + 1, 2 * hy + 1, spacing)
        u, v = np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
        moved = cssa_responses(geometry, az + u * d_az, el + v * d_el, 1.0)
        start = cssa_responses(geometry, az, el, 1.0)
        change = np.linalg.norm(moved - start[:, None, None], axis=0)
        radius = _block_radius(geometry, 1.0, az, el, d_az, d_el)
        assert change.max() <= radius * (1 + 1e-12) + 1e-12


class TestSensingAssumptions:
    @pytest.mark.parametrize("field,value,name", [("tx_power_dbm", 20.0, "tx_power"),
                                                  ("pri", 120e-6, "pri"),
                                                  ("pulse", 25e-6, "pulse")])
    def test_rejects_radars_that_differ(self, field, value, name):
        config = multi_radar_config()
        radars = list(config.radars)
        radars[2] = dataclasses.replace(radars[2], **{field: value})
        scenario = build_scenario(dataclasses.replace(config, radars=tuple(radars)))
        with pytest.raises(ConfigError) as err:
            sense([scenario], 16, [0])
        assert err.value.fieldpath == f"radars[2].{name}"
