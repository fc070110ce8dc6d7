import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RADAR_AXES, oracle_radar_powers
from irstealth.arrays import AnglePair, ArrayGeometry, ArrayKind, upa_response
from irstealth.config import (ScenarioConfig, build_geometry, build_scenario,
                              multi_radar_config, single_radar_config, with_seed)
from irstealth.experiments import inject_aoa_error
from irstealth.optimizers import codebook_designs, mmse_designs, pgd_designs
from irstealth.power_model import (NirsPanel, QcqpInstance, ScenarioGeometry,
                                   angles_between, chirp_waveform, link_factor,
                                   matched_beamformer, path_gain, radar_powers,
                                   sum_power)


@pytest.fixture(scope="module")
def radar(single_scenario):
    return single_scenario.radars[0]


def radar_distance(scenario, k):
    return float(np.linalg.norm(np.subtract(scenario.radars[k].position,
                                            scenario.target.position)))


WAVELENGTH = 0.05


class TestPathGain:
    def test_reference_distance(self):
        gain = path_gain(1.0, 1e-3, WAVELENGTH)
        assert isinstance(gain, complex)
        assert abs(gain) == pytest.approx(0.03162277660168379, rel=1e-12)

    def test_hundred_meters(self):
        gain = path_gain(100.0, 1e-3, WAVELENGTH)
        assert abs(gain) == pytest.approx(3.1622776601683794e-4, rel=1e-12)

    def test_one_wavelength_phase_wraps(self):
        gain = path_gain(WAVELENGTH, 1e-3, WAVELENGTH)
        assert np.angle(gain) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("distance,alpha", [(0.0, 1e-3), (-1.0, 1e-3),
                                                (1.0, 0.0)])
    def test_invalid_inputs(self, distance, alpha):
        with pytest.raises(ValueError):
            path_gain(distance, alpha, WAVELENGTH)

    @given(st.floats(0.1, 1e5), st.floats(1e-6, 1.0))
    def test_magnitude_and_phase_invariants(self, distance, alpha):
        gain = path_gain(distance, alpha, WAVELENGTH)
        assert abs(gain) == pytest.approx(np.sqrt(alpha) / distance, rel=1e-12)
        expected_phase = -2 * np.pi * distance / WAVELENGTH
        assert np.angle(gain) == pytest.approx(
            np.angle(np.exp(1j * expected_phase)), abs=1e-6)


class TestChirpWaveform:
    def test_pulse_start_amplitude(self, radar):
        # Normalized so the pulse power averaged over the whole interval
        # equals the transmit power.
        value = chirp_waveform(radar.pulse_epoch, radar)
        expected = np.sqrt(radar.tx_power * radar.pri / radar.pulse)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_silent_after_pulse(self, radar):
        t = radar.pulse_epoch + 0.5 * (radar.pulse + radar.pri)
        assert chirp_waveform(t, radar) == 0.0

    def test_average_power_over_interval(self, radar):
        # Midpoint rule; the pulse has constant modulus so the quadrature
        # error is only the window rounding.
        n = 10_000
        t = radar.pulse_epoch + (np.arange(n) + 0.5) * radar.pri / n
        mean_power = np.mean(np.abs(chirp_waveform(t, radar)) ** 2)
        assert mean_power == pytest.approx(radar.tx_power, rel=1e-9)

    def test_outside_interval_rejected(self, radar):
        with pytest.raises(ValueError):
            chirp_waveform(radar.pulse_epoch - 1e-9, radar)
        with pytest.raises(ValueError):
            chirp_waveform(radar.pulse_epoch + radar.pri, radar)


class TestMatchedBeamformer:
    def test_entry_magnitudes(self):
        geom = ArrayGeometry(ArrayKind.UPA, 2, 2, 0.025)
        w = matched_beamformer(geom, AnglePair(0.0, 0.0), 0.05)
        np.testing.assert_allclose(np.abs(w), 0.5, atol=1e-12)
        assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)

    def test_matched_gain_magnitude(self, single_scenario):
        gains = single_scenario.geometry.gains
        rho = path_gain(radar_distance(single_scenario, 0),
                        single_scenario.ref_gain, single_scenario.wavelength)
        m = single_scenario.radars[0].geometry.num_elements
        assert abs(gains[0]) == pytest.approx(abs(rho) * np.sqrt(m), rel=1e-12)

    def test_mispointed_beam_loses_gain(self, single_scenario):
        radar = single_scenario.radars[0]
        wrong = matched_beamformer(radar.geometry, AnglePair(1.2, 0.0),
                                   single_scenario.wavelength)
        mispointed = dataclasses.replace(radar, beamformer=wrong)
        scenario = dataclasses.replace(single_scenario, radars=(mispointed,))
        gains = scenario.geometry.gains
        rho = path_gain(radar_distance(scenario, 0), scenario.ref_gain,
                        scenario.wavelength)
        m = radar.geometry.num_elements
        assert abs(gains[0]) < 0.1 * abs(rho) * np.sqrt(m)


class TestBeamformingGains:
    def test_reciprocity(self):
        # Link (k, j) and link (j, k) cross the same two paths, so their
        # factor rows and coating terms agree.
        for num_radars, seed in ((3, 1), (5, 2), (5, 9)):
            scenario = build_scenario(multi_radar_config(num_radars=num_radars,
                                                         seed=seed))
            factor = link_factor(scenario)
            d_mat = factor.d_mat.reshape(num_radars, num_radars, -1)
            r_mat = factor.columns.reshape(num_radars, num_radars)
            assert np.max(np.abs(d_mat - d_mat.transpose(1, 0, 2))) \
                <= 1e-12 * np.max(np.abs(d_mat))
            assert np.max(np.abs(r_mat - r_mat.T)) <= 1e-12 * np.max(np.abs(r_mat))


class TestRadarPower:
    def test_dark_panel_single_radar(self, single_scenario):
        n1 = single_scenario.target.irs_geometry.num_elements
        dark = np.zeros(n1, dtype=complex)
        expected = oracle_radar_powers(single_scenario, dark)[0]
        got = radar_powers(dark, single_scenario)[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_matches_link_oracle(self, multi_scenario):
        rng = np.random.default_rng(17)
        theta = _random_feasible(rng, multi_scenario.target.irs_geometry.num_elements)
        np.testing.assert_allclose(radar_powers(theta, multi_scenario),
                                   oracle_radar_powers(multi_scenario, theta),
                                   rtol=1e-9)

    def test_optimized_panel_cancels(self, single_scenario):
        solution = pgd_designs(link_factor(single_scenario))[0]
        baseline = radar_powers(np.zeros_like(solution.theta), single_scenario)[0]
        assert radar_powers(solution.theta, single_scenario)[0] <= 1e-10 * baseline

    def test_matches_time_domain_signal(self, single_scenario):
        # Independent route: compose the received echo from rank-one
        # line-of-sight channel matrices and the pulse waveform, then average
        # its power over one interval.
        scn = single_scenario
        radar = scn.radars[0]
        rho = path_gain(radar_distance(scn, 0), scn.ref_gain, scn.wavelength)
        a_radar = upa_response(radar.geometry, angles_between(
            radar.position, scn.target.position, RADAR_AXES), scn.wavelength)
        a_surface = upa_response(scn.target.surface_geometry,
                                 scn.geometry.true_angles[0], scn.wavelength)
        inbound = rho * np.outer(a_surface, a_radar)
        outbound = inbound.T
        rng = np.random.default_rng(7)
        n1 = scn.target.irs_geometry.num_elements
        theta = 0.7 * np.exp(1j * rng.uniform(0, 2 * np.pi, n1))
        stacked = np.concatenate([theta, scn.target.nirs.phi])
        w = np.asarray(radar.beamformer)
        gain_chain = w @ outbound @ np.diag(stacked) @ inbound @ w
        n = 20_000
        t = radar.pulse_epoch + (np.arange(n) + 0.5) * radar.pri / n
        y = gain_chain * chirp_waveform(t, radar)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(
            radar_powers(theta, scn)[0], rel=1e-9)

    def test_amplitude_cap_enforced(self, multi_scenario):
        n1 = multi_scenario.target.irs_geometry.num_elements
        radar_powers(np.ones(n1, dtype=complex), multi_scenario)
        with pytest.raises(ValueError):
            radar_powers(1.5 * np.ones(n1, dtype=complex), multi_scenario)

    @pytest.mark.parametrize("power", [radar_powers, sum_power])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_length_rejected(self, multi_scenario, power, extra):
        n1 = multi_scenario.target.irs_geometry.num_elements
        with pytest.raises(ValueError, match="one reflection coefficient per panel element"):
            power(np.zeros(n1 + extra, dtype=complex), multi_scenario)

    @pytest.mark.parametrize("power", [radar_powers, sum_power])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_rejected(self, multi_scenario, power, bad):
        # An all-NaN panel once came back as NaN watts.
        n1 = multi_scenario.target.irs_geometry.num_elements
        theta = np.zeros(n1, dtype=complex)
        theta[n1 // 2] = bad
        with pytest.raises(ValueError, match="finite"):
            power(theta, multi_scenario)
        with pytest.raises(ValueError, match="finite"):
            power(np.full(n1, bad, dtype=complex), multi_scenario)


class TestScenarioFactor:
    @pytest.mark.parametrize("num_radars", [1, 3, 5])
    def test_powers_build_the_factor_once(self, monkeypatch, num_radars):
        scenario = build_scenario(multi_radar_config(num_radars=num_radars, n1x=5))
        theta = _random_feasible(np.random.default_rng(num_radars),
                                 scenario.target.irs_geometry.num_elements)
        # The values a fresh factor per call gives: its objective, and one
        # per K-row block.
        fresh = scenario.geometry.factor(np.asarray(scenario.target.nirs.phi)[:, None])
        blocks = zip(np.split(fresh.d_mat, num_radars), np.split(fresh.columns, num_radars))
        per_radar = [QcqpInstance(d, r, fresh.beta_max).objective(theta)[0] for d, r in blocks]
        calls = []
        factor = ScenarioGeometry.factor
        monkeypatch.setattr(ScenarioGeometry, "factor",
                            lambda *args: calls.append(args) or factor(*args))
        totals = [sum_power(theta, scenario), sum_power(theta, scenario)]
        assert radar_powers(theta, scenario).tolist() == per_radar
        assert radar_powers(theta, scenario).tolist() == per_radar
        assert totals == [fresh.objective(theta)[0]] * 2
        assert len(calls) == 1
        assert link_factor(scenario) is scenario.factor


class TestSumPower:
    def test_single_radar_reduces_to_radar_power(self, single_scenario):
        n1 = single_scenario.target.irs_geometry.num_elements
        theta = 0.3 * np.ones(n1, dtype=complex)
        assert sum_power(theta, single_scenario) == pytest.approx(
            radar_powers(theta, single_scenario)[0], rel=1e-12)

    def test_sum_dominates_subsets(self, multi_scenario):
        n1 = multi_scenario.target.irs_geometry.num_elements
        theta = np.zeros(n1, dtype=complex)
        total = sum_power(theta, multi_scenario)
        parts = radar_powers(theta, multi_scenario)
        assert parts.shape == (multi_scenario.num_radars,)
        assert total == pytest.approx(sum(parts), rel=1e-12)
        for k in range(3):
            assert total >= parts[k] + parts[(k + 1) % 3]

    def test_double_sum_oracle(self, multi_scenario):
        # Re-expand the double sum link by link from first principles.
        scn = multi_scenario
        rng = np.random.default_rng(11)
        n1 = scn.target.irs_geometry.num_elements
        theta = 0.9 * np.exp(1j * rng.uniform(0, 2 * np.pi, n1))
        expected = float(np.sum(oracle_radar_powers(scn, theta)))
        assert sum_power(theta, scn) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("num_radars", [3, 5])
    def test_radar_permutation(self, num_radars):
        # Reversing the radars of a config reverses the per-radar powers and
        # leaves their sum: the coating phases are drawn before the radars'
        # clock jitter, so both orders see the same coating.
        config = multi_radar_config(num_radars=num_radars, seed=4)
        scenario = build_scenario(config)
        reverse = build_scenario(dataclasses.replace(config,
                                                     radars=config.radars[::-1]))
        rng = np.random.default_rng(19)
        theta = _random_feasible(rng, scenario.target.irs_geometry.num_elements)
        assert sum_power(theta, reverse) == pytest.approx(sum_power(theta, scenario),
                                                          rel=1e-12)
        np.testing.assert_allclose(radar_powers(theta, reverse),
                                   radar_powers(theta, scenario)[::-1], rtol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_midpoint_convexity(self, seed):
        scenario = build_scenario(single_radar_config(seed=seed % 1000))
        rng = np.random.default_rng(seed)
        n1 = scenario.target.irs_geometry.num_elements
        th_a = _random_feasible(rng, n1)
        th_b = _random_feasible(rng, n1)
        mid = sum_power(0.5 * (th_a + th_b), scenario)
        avg = 0.5 * (sum_power(th_a, scenario) + sum_power(th_b, scenario))
        assert mid <= avg + 1e-12 * max(avg, 1.0)

    def test_power_of_two_scaling_is_exact(self, multi_scenario):
        rng = np.random.default_rng(13)
        n1 = multi_scenario.target.irs_geometry.num_elements
        theta = _random_feasible(rng, n1)
        radars = tuple(dataclasses.replace(r, tx_power=4.0 * r.tx_power)
                       for r in multi_scenario.radars)
        scaled = dataclasses.replace(multi_scenario, radars=radars)
        assert sum_power(theta, scaled) == 4.0 * sum_power(theta, multi_scenario)


def _random_feasible(rng, n1):
    return rng.uniform(0, 1, n1) * np.exp(1j * rng.uniform(0, 2 * np.pi, n1))


class TestValidation:
    def test_beamformer_must_be_unit_norm(self, single_scenario):
        radar = single_scenario.radars[0]
        with pytest.raises(ValueError):
            dataclasses.replace(radar, beamformer=2.0 * np.asarray(radar.beamformer))

    def test_pulse_shorter_than_interval(self, single_scenario):
        radar = single_scenario.radars[0]
        with pytest.raises(ValueError):
            dataclasses.replace(radar, pulse=radar.pri)

    def test_panel_amplitude_cap(self, single_scenario):
        for beta_max in (0.0, -0.5, 1.2, np.inf, np.nan):
            with pytest.raises(ValueError, match="beta_max must be in"):
                dataclasses.replace(single_scenario.target, beta_max=beta_max)

    def test_coating_magnitude_consistency(self):
        with pytest.raises(ValueError):
            NirsPanel(np.array([1.0 + 0j]), np.array([0.5]))

    def test_reversed_angle_conventions_mirror(self, multi_scenario):
        # Both ends share the world +y array normal and opposed x-axes, so
        # the departure angles mirror the arrival angles.
        aoa = multi_scenario.geometry.true_angles[1]
        aod = angles_between(multi_scenario.radars[1].position,
                             multi_scenario.target.position, RADAR_AXES)
        assert aod.azimuth == pytest.approx(-aoa.azimuth, abs=1e-12)
        assert aod.elevation == pytest.approx(-aoa.elevation, abs=1e-12)


def _factor(scenario, case):
    """The link factor of one of the three documented cases."""
    truth = [scenario.geometry.true_angles[k] for k in range(scenario.num_radars)]
    if case == "true":
        return link_factor(scenario)
    if case == "steering":
        return link_factor(scenario, [inject_aoa_error(a, 1.0, scenario.seed + k)
                                      for k, a in enumerate(truth)])
    angles = [AnglePair(a.azimuth + 1e-3 * (k + 1), a.elevation) for k, a in
              enumerate(truth)]
    return link_factor(scenario, angles, np.linspace(1.0, 2.0, len(angles)))


class TestSharedGeometry:
    @pytest.mark.parametrize("case", ["true", "steering", "sensed"])
    def test_reused_geometry_gives_bitwise_fresh_factor(self, case):
        config = multi_radar_config(n1x=5)
        shared = build_geometry(config)
        for seed in (3, 17, 3, 40, 17):
            reused = _factor(shared.draw(seed), case)
            fresh_scenario = build_scenario(with_seed(config, seed))
            for fresh in (_factor(fresh_scenario, case),
                          _factor(dataclasses.replace(fresh_scenario), case)):
                assert np.array_equal(reused.d_mat, fresh.d_mat)
                assert np.array_equal(reused.columns, fresh.columns)
            # The cached decompositions give the same designs as fresh ones.
            assert np.array_equal(pgd_designs(reused)[0].theta, pgd_designs(fresh)[0].theta)
            assert np.array_equal(mmse_designs(reused)[0][1].theta,
                                  mmse_designs(fresh)[0][1].theta)
            assert np.array_equal(codebook_designs(reused)[0].theta,
                                  codebook_designs(fresh)[0].theta)

    def test_true_factors_share_one_link_matrix(self):
        geometry = build_geometry(multi_radar_config(n1x=5))
        a, b = (link_factor(geometry.draw(seed)) for seed in (1, 2))
        # Both carry the same true link matrix, bit for bit; only the coating
        # terms are their own.
        assert np.array_equal(a.d_mat, b.d_mat)
        assert not np.array_equal(a.columns, b.columns)

    def test_column_selection_gives_the_bits_of_its_contiguous_copy(self):
        config = ScenarioConfig.load(Path(__file__).parent / "golden" / "radar1-n8.json")
        geometry = build_geometry(config)
        phis = geometry.coatings(range(8))
        steered = [AnglePair(a.azimuth + 0.01, a.elevation) for a in geometry.true_angles]
        for members in ([0], [1, 3], [0, 2, 5, 7], [6, 1, 4]):
            for angles in (None, [steered] * len(members)):
                picked = geometry.factor(phis[:, members], angles)
                copied = geometry.factor(np.ascontiguousarray(phis[:, members]), angles)
                assert np.array_equal(picked.d_mat, copied.d_mat)
                assert np.array_equal(picked.columns, copied.columns)

    def test_true_angles_give_the_true_factor_bit_for_bit(self):
        geometry = build_geometry(multi_radar_config(n1x=5))
        phis = geometry.coatings([1, 2, 3])
        given, true = geometry.factor(phis, [geometry.true_angles] * 3), geometry.factor(phis)
        assert np.array_equal(given.d_mat, true.d_mat)
        assert np.array_equal(given.columns, true.columns)

    def test_draw_keeps_the_seed_stream(self):
        # Coating phases first, then one clock jitter per radar, so a seed
        # maps to the same scenario however it is built.
        config = multi_radar_config(n1x=5)
        geometry = build_geometry(config)
        for seed in (0, 9, 2 ** 32 - 1):
            drawn = geometry.draw(seed)
            built = build_scenario(with_seed(config, seed))
            rng = np.random.default_rng(seed)
            phi = np.sqrt(1.0 - 0.8) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 200))
            epochs = [radar_distance(built, k) / 299792458.0 + rng.uniform(0.0, 2e-6)
                      for k in range(3)]
            for scenario in (drawn, built):
                assert scenario.seed == seed
                assert np.array_equal(scenario.target.nirs.phi, phi)
                assert [r.pulse_epoch for r in scenario.radars] == epochs

    def test_coating_terms_are_the_drawn_factors_coating_terms(self):
        geometry = build_geometry(multi_radar_config(n1x=5))
        seeds = [0, 9, 2 ** 32 - 1, 9]
        r_mat = geometry.factor(geometry.coatings(seeds)).columns
        assert r_mat.shape == (9, len(seeds))
        for column, seed in zip(r_mat.T, seeds):
            r = link_factor(geometry.draw(seed)).columns[:, 0]
            np.testing.assert_allclose(column, r, rtol=0, atol=1e-13 * np.max(np.abs(r)))

    def test_one_seed_factor_is_the_drawn_factor_bit_for_bit(self):
        geometry = build_geometry(multi_radar_config(n1x=5))
        for seed in (0, 9, 2 ** 32 - 1):
            batch = geometry.factor(geometry.coatings([seed]))
            drawn = link_factor(geometry.draw(seed))
            assert np.array_equal(batch.d_mat, drawn.d_mat)
            assert np.array_equal(batch.columns, drawn.columns)
            assert batch.beta_max == drawn.beta_max

    def test_factor_rejects_coatings_of_the_wrong_shape(self):
        geometry = build_geometry(multi_radar_config(n1x=5))
        phis = geometry.coatings([1, 2])
        for bad in (phis[:, 0], phis[1:], phis[None]):
            with pytest.raises(ValueError, match="coating coefficients"):
                geometry.factor(bad)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
    def test_draw_rejects_bad_seed(self, seed):
        geometry = build_geometry(single_radar_config())
        with pytest.raises(ValueError):
            geometry.draw(seed)
        with pytest.raises(ValueError):
            geometry.coatings([1, seed])

    def test_replaced_scenario_drops_geometry(self, multi_scenario):
        assert multi_scenario.geometry is not None
        assert dataclasses.replace(multi_scenario).geometry is not multi_scenario.geometry

    def test_shared_arrays_are_read_only(self):
        geometry = build_geometry(multi_radar_config(n1x=5))
        factor = link_factor(geometry.draw(1))
        steered = [AnglePair(a.azimuth + 0.01, a.elevation) for a in geometry.true_angles]
        shared = [geometry.factor(geometry.coatings([1]), [steered]).d_mat, *factor.svd,
                  factor.reduced.d_mat, factor.reduced.columns, *factor.reduced.svd,
                  geometry.amplitudes, geometry.gains, *geometry.true_blocks,
                  factor.d_mat, factor.columns]
        for array in shared:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0


class TestRadarBlocks:
    @pytest.mark.parametrize("n1x", [4, 400])
    @pytest.mark.parametrize("num_radars", [2, 3, 4, 5])
    def test_leading_block_is_the_fewer_radar_factor(self, num_radars, n1x):
        # The first k radars see the panel through the links (i, j), i, j < k.
        config = multi_radar_config(num_radars=num_radars, n1x=n1x)
        geometry = build_geometry(config)
        phis = geometry.coatings([1, 2, 3])
        full = geometry.factor(phis)
        for k in range(1, num_radars + 1):
            d_mat, columns = (x.reshape(num_radars, num_radars, -1)[:k, :k]
                              .reshape(k * k, -1) for x in (full.d_mat, full.columns))
            fewer = build_geometry(dataclasses.replace(config, radars=config.radars[:k]))
            fresh = fewer.factor(phis)
            assert np.array_equal(d_mat, fresh.d_mat)
            if k == 1:
                # A one-row coating product takes another BLAS kernel.
                np.testing.assert_allclose(columns, fresh.columns, rtol=1e-14, atol=0)
            else:
                assert np.array_equal(columns, fresh.columns)
