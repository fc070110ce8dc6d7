import dataclasses

import numpy as np
import pytest

from irstealth.arrays import AnglePair, ArrayGeometry, ArrayKind
from irstealth.config import build_scenario, multi_radar_config, single_radar_config
from irstealth.estimation import (EstimationError, SnapshotSet,
                                  collect_snapshots, estimate_parameters,
                                  gain_estimate, ls_recover, music_aoa,
                                  steering_matrix, _grid_spectrum,
                                  _noise_subspace)
from irstealth.optimizers import solve_pgd
from irstealth.power_model import (angles_at_target, beamforming_gains,
                                   link_factor, sum_power)

GRID = np.deg2rad(1.0)


def noiseless(scenario):
    target = dataclasses.replace(scenario.target, cssa_noise=0.0)
    return dataclasses.replace(scenario, target=target)


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
        snaps = collect_snapshots(clean_single, 16, seed=0)
        reference = snaps.samples[:, :1]
        projector = reference @ reference.conj().T / np.vdot(reference, reference)
        np.testing.assert_allclose(projector @ snaps.samples, snaps.samples,
                                   atol=1e-12)

    def test_noiseless_covariance_rank_equals_sources(self, clean_multi):
        snaps = collect_snapshots(clean_multi, 32, seed=0)
        cov = snaps.samples @ snaps.samples.conj().T / 32
        eigvals = np.linalg.eigvalsh(cov)
        assert eigvals[-3] > 1e-10 * eigvals[-1]
        assert eigvals[-4] <= 1e-10 * eigvals[-1]

    def test_seeded_determinism(self, multi_scenario):
        a = collect_snapshots(multi_scenario, 8, seed=99)
        b = collect_snapshots(multi_scenario, 8, seed=99)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_needs_snapshots(self, clean_single):
        with pytest.raises(ValueError):
            collect_snapshots(clean_single, 0, seed=0)


class TestMusicAoa:
    def test_single_source_on_grid_is_exact(self, clean_single):
        snaps = collect_snapshots(clean_single, 16, seed=0)
        estimate = music_aoa(snaps, 1, GRID)
        truth = angles_at_target(clean_single, 0)
        assert estimate.angles[0].azimuth == pytest.approx(truth.azimuth,
                                                           abs=1e-12)
        assert estimate.angles[0].elevation == pytest.approx(0.0, abs=1e-12)

    def test_three_sources_recovered(self, clean_multi):
        snaps = collect_snapshots(clean_multi, 64, seed=1)
        estimate = music_aoa(snaps, 3, GRID)
        got = sorted(a.azimuth for a in estimate.angles)
        want = sorted(angles_at_target(clean_multi, k).azimuth for k in range(3))
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
            snaps = collect_snapshots(scenario, 64, seed=seed)
            estimate = music_aoa(snaps, 1, GRID)
            truth = angles_at_target(scenario, 0)
            errors.append(abs(estimate.angles[0].azimuth - truth.azimuth))
        assert np.quantile(errors, 0.95) <= np.deg2rad(0.5)

    def test_too_many_sources_rejected(self, clean_multi):
        snaps = collect_snapshots(clean_multi, 16, seed=0)
        with pytest.raises(ValueError):
            music_aoa(snaps, 9, GRID)

    def test_missing_peaks_reported(self, clean_single):
        # One dominant source scanned on a very coarse grid: neighboring
        # grid maxima merge into a single peak, fewer than requested.
        snaps = collect_snapshots(clean_single, 32, seed=0)
        with pytest.raises(EstimationError) as err:
            music_aoa(snaps, 2, np.deg2rad(45.0))
        assert len(err.value.peaks) == 1

    def test_noise_subspace_orthogonal_to_steering(self, clean_multi):
        snaps = collect_snapshots(clean_multi, 64, seed=2)
        basis = _noise_subspace(snaps, 3)
        truth = steering_matrix(snaps, [angles_at_target(clean_multi, k)
                                        for k in range(3)])
        assert np.linalg.norm(basis.conj().T @ truth) <= 1e-8

    def test_spectrum_invariant_to_sample_scaling(self, clean_multi):
        snaps = collect_snapshots(clean_multi, 64, seed=3)
        doubled = SnapshotSet(2.0 * snaps.samples, snaps.sample_times,
                              snaps.noise_power, snaps.geometry, snaps.wavelength)
        az = np.deg2rad(np.arange(-60, 61, 5, dtype=float))
        el = np.deg2rad(np.arange(0, 31, 5, dtype=float))
        spec_a = _grid_spectrum(_noise_subspace(snaps, 3), snaps, az, el)
        spec_b = _grid_spectrum(_noise_subspace(doubled, 3), doubled, az, el)
        np.testing.assert_allclose(spec_b, spec_a, rtol=1e-9)


def _snapshot_signal_power(scenario):
    gains = beamforming_gains(scenario)
    radar = scenario.radars[0]
    return abs(gains.g_tx[0]) ** 2 * radar.tx_power * radar.pri / radar.pulse


class TestLsRecover:
    def test_noiseless_recovery_is_exact(self, clean_multi):
        snaps = collect_snapshots(clean_multi, 32, seed=0)
        truth_angles = [angles_at_target(clean_multi, k) for k in range(3)]
        a_matrix = steering_matrix(snaps, truth_angles)
        recovered = ls_recover(snaps, a_matrix)
        gains = beamforming_gains(clean_multi)
        from irstealth.power_model import chirp_waveform
        expected = np.stack([gains.g_tx[k]
                             * chirp_waveform(snaps.sample_times,
                                              clean_multi.radars[k])
                             for k in range(3)])
        np.testing.assert_allclose(recovered, expected, rtol=1e-10)

    def test_single_source_matched_filter_equivalence(self, clean_single):
        snaps = collect_snapshots(clean_single, 16, seed=0)
        a_matrix = steering_matrix(snaps, [angles_at_target(clean_single, 0)])
        recovered = ls_recover(snaps, a_matrix)
        matched = a_matrix[:, 0].conj() @ snaps.samples / a_matrix.shape[0]
        np.testing.assert_allclose(recovered[0], matched, rtol=1e-10)

    def test_residual_orthogonal_to_steering(self, multi_scenario):
        snaps = collect_snapshots(multi_scenario, 32, seed=5)
        a_matrix = steering_matrix(snaps, [angles_at_target(multi_scenario, k)
                                           for k in range(3)])
        recovered = ls_recover(snaps, a_matrix)
        residual = snaps.samples - a_matrix @ recovered
        assert np.max(np.abs(a_matrix.conj().T @ residual)) <= 1e-9 * np.max(
            np.abs(snaps.samples))

    def test_rank_deficient_steering_rejected(self, clean_multi):
        snaps = collect_snapshots(clean_multi, 16, seed=0)
        pair = angles_at_target(clean_multi, 0)
        with pytest.raises(np.linalg.LinAlgError):
            ls_recover(snaps, steering_matrix(snaps, [pair, pair]))


class TestGainEstimate:
    def test_noiseless_equals_power_scaled_gain(self, clean_multi):
        snaps = collect_snapshots(clean_multi, 64, seed=0)
        a_matrix = steering_matrix(snaps, [angles_at_target(clean_multi, k)
                                           for k in range(3)])
        recovered = ls_recover(snaps, a_matrix)
        radar = clean_multi.radars[0]
        estimate = gain_estimate(recovered, radar.pri, radar.pulse)
        gains = beamforming_gains(clean_multi)
        expected = np.array([r.tx_power for r in clean_multi.radars]) \
            * np.abs(gains.g_tx) ** 2
        np.testing.assert_allclose(estimate.g2_tx, expected, rtol=1e-10)
        np.testing.assert_array_equal(estimate.g2_tx, estimate.g2_rx)

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
            snaps = SnapshotSet(noise, np.linspace(0, pulse, 64, endpoint=False),
                                sigma2, geometry, 0.05)
            a_matrix = steering_matrix(snaps, angles)
            estimates.append(gain_estimate(ls_recover(snaps, a_matrix),
                                           pri, pulse).g2_tx)
        a_matrix = steering_matrix(snaps, angles)
        gram_inv = np.linalg.inv(a_matrix.conj().T @ a_matrix)
        analytic = pulse / pri * sigma2 * np.real(np.diag(gram_inv))
        np.testing.assert_allclose(np.mean(estimates, axis=0), analytic,
                                   rtol=0.1)

    def test_invalid_windows(self):
        with pytest.raises(ValueError):
            gain_estimate(np.ones((1, 4)), 1e-4, 2e-4)


def _pipeline_gains(scenario):
    _, gains = estimate_parameters(scenario, n_snapshots=32, seed=4)
    return gains.g2_tx


class TestEndToEnd:
    def test_estimated_parameters_reproduce_true_design(self, clean_multi):
        aoa, gains2 = estimate_parameters(clean_multi, n_snapshots=64, seed=6)
        est_instance = link_factor(clean_multi, aoa.angles, gains2.g2_tx)
        true_instance = link_factor(clean_multi)
        theta_est = solve_pgd(est_instance).theta
        theta_true = solve_pgd(true_instance).theta
        np.testing.assert_allclose(theta_est, theta_true, atol=1e-6)
        baseline = sum_power(np.zeros_like(theta_true), clean_multi)
        diff = abs(sum_power(theta_est, clean_multi)
                   - sum_power(theta_true, clean_multi))
        assert diff <= 1e-6 * baseline
