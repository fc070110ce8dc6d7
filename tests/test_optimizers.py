import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import (dense_terms, grid_search_min_1, grid_search_min_2,
                      grid_search_min_2_literal, link_oracle, one_link_instance,
                      oracle_radar_powers, random_multi_instance,
                      random_single_instance, unit_phases)
from irstealth.arrays import AnglePair
from irstealth.config import (ScenarioConfig, build_geometry, build_scenario,
                              multi_radar_config, single_radar_config, with_seed)
from irstealth.estimation import sense
from irstealth import optimizers
from irstealth.experiments import inject_aoa_error, trial_seeds
from irstealth.optimizers import (SOLVERS, ConvergenceError, ReflectionSolution,
                                  alignment_designs, codebook_designs, dual_value,
                                  kkt_certificate, lagrange_semiclosed,
                                  min_irs_elements, mmse_designs, pgd_designs,
                                  random_phase, _codebook_objectives, _ridge_designs)
from irstealth.power_model import NirsPanel, QcqpInstance, link_factor, sum_power


def scalar_instance():
    # One element, unit cascaded response, gain 2, full amplitude budget.
    return QcqpInstance(np.ones((1, 1), dtype=complex),
                        np.array([2.0 + 0.0j]), 1.0)


def link_sum_oracle(scenario, theta):
    """Sum over links of w_kj |u_kj^H theta + c_kj|^2, link by link."""
    return float(np.sum(oracle_radar_powers(scenario, theta)))


class TestBuildInstance:
    """The link factor built from a scenario."""

    def test_single_radar_is_rank_one(self, single_scenario):
        inst = link_factor(single_scenario)
        eigvals = np.linalg.eigvalsh(dense_terms(inst)[0])
        assert inst.d_mat.shape == (1, inst.n_elements)
        assert eigvals[-1] > 0
        assert eigvals[-2] <= 1e-10 * eigvals[-1]

    def test_full_absorption_leaves_nothing_to_cancel(self, single_scenario):
        target = single_scenario.target
        n2 = target.nirs_geometry.num_elements
        absorbing = NirsPanel(np.zeros(n2, dtype=complex), np.ones(n2))
        scenario = dataclasses.replace(
            single_scenario, target=dataclasses.replace(target, nirs=absorbing))
        inst = link_factor(scenario)
        np.testing.assert_array_equal(inst.columns, 0.0)
        assert inst.objective(np.zeros(inst.n_elements))[0] == 0.0
        np.testing.assert_array_equal(pgd_designs(inst)[0].theta, 0.0)

    def test_constant_term_oracle(self, multi_scenario):
        # Recompute the constant by looping the links explicitly.
        inst = link_factor(multi_scenario)
        dark = np.zeros(inst.n_elements, dtype=complex)
        expected = link_sum_oracle(multi_scenario, dark)
        assert dense_terms(inst)[2] == pytest.approx(expected, rel=1e-9)

    def test_objective_matches_sum_power(self, multi_scenario):
        rng = np.random.default_rng(5)
        inst = link_factor(multi_scenario)
        theta = 0.8 * unit_phases(rng, inst.n_elements)
        assert inst.objective(theta)[0] == pytest.approx(
            sum_power(theta, multi_scenario), rel=1e-9)
        assert inst.objective(theta)[0] == pytest.approx(
            link_sum_oracle(multi_scenario, theta), rel=1e-9)

    def test_rejects_mismatched_coating_terms(self):
        with pytest.raises(ValueError):
            QcqpInstance(np.ones((2, 3), dtype=complex), np.zeros(3), 1.0)
        with pytest.raises(ValueError, match="link rows"):
            QcqpInstance(np.ones((2, 3), dtype=complex), np.zeros((3, 4)), 1.0)
        with pytest.raises(ValueError, match="link rows"):
            QcqpInstance(np.ones((2, 3), dtype=complex), np.zeros((2, 4, 1)), 1.0)

    def test_rejects_coating_terms_without_columns(self):
        # Every design once failed later, reshaping an empty batch.
        with pytest.raises(ValueError, match="at least one column"):
            QcqpInstance(np.ones((2, 3), dtype=complex), np.zeros((2, 0)), 1.0)

    def test_rejects_non_finite_factor(self):
        with pytest.raises(ValueError):
            QcqpInstance(np.array([[1.0, np.nan]]), np.zeros(1), 1.0)

    def test_steering_error_keeps_true_coating_terms(self, multi_scenario):
        truth = link_factor(multi_scenario)
        angles = [AnglePair(a.azimuth + 0.01, a.elevation) for a in
                  (multi_scenario.geometry.true_angles[k] for k in range(3))]
        perturbed = link_factor(multi_scenario, angles)
        np.testing.assert_array_equal(perturbed.columns, truth.columns)
        scale = np.max(np.abs(truth.d_mat))
        assert np.max(np.abs(perturbed.d_mat - truth.d_mat)) > 1e-3 * scale
        np.testing.assert_allclose(np.abs(perturbed.d_mat), np.abs(truth.d_mat),
                                   rtol=1e-12)

    def test_estimates_need_matching_angles(self, multi_scenario):
        angles = [multi_scenario.geometry.true_angles[k] for k in range(3)]
        with pytest.raises(ValueError):
            link_factor(multi_scenario, angles, np.ones(2))
        with pytest.raises(ValueError):
            link_factor(multi_scenario, None, np.ones(3))
        with pytest.raises(ValueError):
            link_factor(multi_scenario, angles[:2])

    @pytest.mark.parametrize("g2", [[-1.0, -1.0, -1.0], [1.0, -0.5, 1.0],
                                    [1.0, np.nan, 1.0], [np.inf, 1.0, 1.0]])
    def test_rejects_bad_gain_estimates(self, multi_scenario, g2):
        angles = [multi_scenario.geometry.true_angles[k] for k in range(3)]
        with pytest.raises(ValueError, match="g2"):
            link_factor(multi_scenario, angles, np.array(g2))


class TestSolvePgd:
    def test_scalar_clamp(self):
        sol = pgd_designs(scalar_instance())[0]
        assert sol.theta[0] == pytest.approx(-1.0, abs=1e-9)
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_full_cancellation_when_budget_allows(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n1 = int(rng.integers(1, 24))
            u = unit_phases(rng, n1)
            c = rng.uniform(0, n1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            inst = one_link_instance(u, c)
            assert pgd_designs(inst)[0].objective <= 1e-10

    def test_matches_grid_oracle_one_element(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            inst, _, _ = random_single_instance(rng, n1=1)
            sol = pgd_designs(inst)[0]
            grid = grid_search_min_1(inst)
            assert grid >= sol.objective - 1e-9 * (1 + abs(sol.objective))
            assert grid - sol.objective <= _grid_resolution_bound(inst, sol)

    def test_matches_grid_oracle_two_elements(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            inst = random_multi_instance(rng, n1x=2, ny=1, k=2)
            sol = pgd_designs(inst)[0]
            grid = grid_search_min_2(inst)
            assert grid >= sol.objective - 1e-9 * (1 + abs(sol.objective))
            assert grid - sol.objective <= _grid_resolution_bound(inst, sol)

    def test_reduced_oracle_agrees_with_literal_enumeration(self):
        rng = np.random.default_rng(3)
        inst = random_multi_instance(rng, n1x=2, ny=1, k=2)
        fast = grid_search_min_2(inst, amp_step=0.05, phase_step=0.1)
        literal = grid_search_min_2_literal(inst, amp_step=0.05, phase_step=0.1)
        assert fast == pytest.approx(literal, rel=1e-12, abs=1e-12)

    def test_invalid_tolerance(self):
        for tol in (0.0, -1e-10, np.nan):
            with pytest.raises(ValueError, match="tolerance"):
                pgd_designs(scalar_instance(), tol=tol)

    def test_budget_exhaustion_carries_best_iterate(self, monkeypatch):
        rng = np.random.default_rng(4)
        inst = random_multi_instance(rng, n1x=6, ny=2, k=3)
        monkeypatch.setattr(optimizers, "_NEWTON_STEPS", 3)
        with pytest.raises(ConvergenceError) as err:
            pgd_designs(inst, tol=1e-16)
        best = err.value.best
        assert isinstance(best, ReflectionSolution)
        assert best.iterations == 3
        assert np.max(np.abs(best.theta)) <= inst.beta_max
        assert best.objective == inst.objective(best.theta)[0]

    def test_feasibility_of_returned_designs(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            inst = random_multi_instance(rng, n1x=3, ny=2, k=2)
            sol = pgd_designs(inst)[0]
            assert np.max(np.abs(sol.theta)) <= inst.beta_max + 1e-9
            assert sol.objective == pytest.approx(inst.objective(sol.theta)[0],
                                                  rel=1e-9, abs=1e-12)


def _grid_resolution_bound(inst, sol):
    # Each element of the optimum moves at most half a grid cell, so the
    # grid value exceeds the optimum by at most the induced objective change.
    u_mat, v_vec, _ = dense_terms(inst)
    eps = np.sqrt(inst.n_elements) * np.hypot(0.005, inst.beta_max * 0.005)
    grad = np.linalg.norm(u_mat @ sol.theta + v_vec)
    lam_top = float(np.linalg.eigvalsh(u_mat)[-1])
    return 2.0 * grad * eps + lam_top * eps ** 2 + 1e-9


class TestLagrangeSemiclosed:
    def test_large_multipliers_shrink_to_zero(self):
        rng = np.random.default_rng(6)
        inst = random_multi_instance(rng, n1x=3, ny=2, k=2)
        theta = lagrange_semiclosed(inst, 1e9 * np.ones(inst.n_elements))
        assert np.max(np.abs(theta)) < 1e-6

    def test_zero_multipliers_give_unconstrained_minimizer(self):
        rng = np.random.default_rng(7)
        base = random_multi_instance(rng, n1x=3, ny=2, k=2)
        # Regularize to full rank so the unconstrained minimizer is unique:
        # extra rows sqrt(0.5) I add 0.5 I to U and leave v unchanged.
        n = base.n_elements
        inst = QcqpInstance(np.vstack([base.d_mat, np.sqrt(0.5) * np.eye(n)]),
                            np.concatenate([base.columns[:, 0], np.zeros(n)]), 1.0)
        u_mat, v_vec, _ = dense_terms(inst)
        theta = lagrange_semiclosed(inst, np.zeros(n))
        np.testing.assert_allclose(u_mat @ theta, -v_vec, atol=1e-10)

    def test_consistency_with_recovered_multipliers(self):
        # Saturated single-radar case: all constraints active, multipliers
        # positive, shifted matrix invertible.
        rng = np.random.default_rng(8)
        inst, _, c = random_single_instance(rng, n1=6)
        while abs(c) <= 8.0:
            inst, _, c = random_single_instance(rng, n1=6)
        sol = pgd_designs(inst, tol=1e-12)[0]
        lam, residual = kkt_certificate(inst, sol)
        assert residual <= 1e-6 * (1.0 + abs(c) ** 2)
        theta = lagrange_semiclosed(inst, lam)
        np.testing.assert_allclose(theta, sol.theta, atol=1e-6)

    def test_singular_shift_rejected(self):
        rng = np.random.default_rng(9)
        inst, _, _ = random_single_instance(rng, n1=3)
        with pytest.raises(np.linalg.LinAlgError):
            lagrange_semiclosed(inst, np.zeros(3))

    def test_negative_multipliers_rejected(self):
        with pytest.raises(ValueError):
            lagrange_semiclosed(scalar_instance(), np.array([-1.0]))


class TestKktCertificate:
    def test_interior_optimum(self):
        rng = np.random.default_rng(10)
        u = unit_phases(rng, 8)
        c = 2.0 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        inst = one_link_instance(u, c)
        sol = pgd_designs(inst)[0]
        lam, residual = kkt_certificate(inst, sol)
        np.testing.assert_array_equal(lam, 0.0)
        assert residual <= 1e-6

    def test_scalar_clamp_multiplier(self):
        sol = pgd_designs(scalar_instance())[0]
        lam, residual = kkt_certificate(scalar_instance(), sol)
        assert lam[0] == pytest.approx(1.0, abs=1e-8)
        assert residual <= 1e-8

    def test_strong_duality_on_scalar_case(self):
        inst = scalar_instance()
        sol = pgd_designs(inst)[0]
        lam, _ = kkt_certificate(inst, sol)
        assert dual_value(inst, lam) == pytest.approx(sol.objective, abs=1e-8)

    def test_duality_gap_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            inst = random_multi_instance(rng, n1x=4, ny=2, k=2)
            sol = pgd_designs(inst)[0]
            lam, _ = kkt_certificate(inst, sol)
            gap = sol.objective - dual_value(inst, lam)
            assert abs(gap) <= 1e-6 * (1.0 + abs(sol.objective))


class TestReverseAlignment:
    def test_saturated_residual(self):
        rng = np.random.default_rng(12)
        u = unit_phases(rng, 2)
        sol = alignment_designs(one_link_instance(u, 2.5 + 0.0j, 1.0))[0]
        assert sol.objective == pytest.approx(0.25, rel=1e-12)

    def test_exact_cancellation(self):
        rng = np.random.default_rng(13)
        u = unit_phases(rng, 3)
        sol = alignment_designs(one_link_instance(u, 2.5 * np.exp(0.7j), 1.0))[0]
        assert sol.objective <= 1e-20

    def test_zero_gain_stays_dark(self):
        sol = alignment_designs(one_link_instance(np.ones(4), 0.0, 1.0))[0]
        np.testing.assert_array_equal(sol.theta, 0.0)
        assert sol.objective == 0.0

    def test_matches_projected_gradient(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            inst, u, c = random_single_instance(rng)
            got = alignment_designs(one_link_instance(u, c, inst.beta_max))[0].objective
            want = pgd_designs(inst)[0].objective
            assert abs(got - want) <= 1e-8 * (1.0 + max(got, want))

    def test_rejects_non_unit_modulus(self):
        with pytest.raises(ValueError, match="constant modulus"):
            alignment_designs(one_link_instance(np.array([1.0, 0.5 + 0j]), 1.0, 1.0))

    @pytest.mark.parametrize("row", [[0.0, 0.0], [0.0, 1.0]])
    def test_rejects_zero_link_row(self, row):
        # Before the division by the link amplitude, which would give NaN designs.
        with pytest.raises(ValueError, match="nonzero constant modulus"):
            alignment_designs(QcqpInstance(np.array([row]), np.array([1.0]), 1.0))

    def test_objective_is_on_the_factor_scale(self):
        rng = np.random.default_rng(16)
        u = unit_phases(rng, 3)
        inst = QcqpInstance(2.0 * np.conj(u)[None, :], np.array([2.0 * 4.5]), 1.0)
        sol = alignment_designs(inst)[0]
        assert sol.objective == pytest.approx(4.0 * 1.5 ** 2, rel=1e-12)
        assert sol.objective == pytest.approx(inst.objective(sol.theta)[0], rel=1e-12)

    def test_feasible_amplitudes(self):
        rng = np.random.default_rng(15)
        u = unit_phases(rng, 5)
        sol = alignment_designs(one_link_instance(u, 3.7 * np.exp(1.9j), 0.8))[0]
        assert np.max(np.abs(sol.theta)) <= 0.8 + 1e-12


class TestMmse:
    def test_min_norm_cancels_single_radar(self, single_scenario):
        inst = link_factor(single_scenario)
        theta = _ridge_designs(inst, inst.columns, [0.0])[:, 0, 0]
        _, _, u, u_nirs = link_oracle(single_scenario)
        c = np.vdot(u_nirs[0, 0], single_scenario.target.nirs.phi)
        assert abs(np.vdot(u[0, 0], theta) + c) <= 1e-10

    def test_heavy_regularization_goes_dark(self, multi_scenario):
        inst = link_factor(multi_scenario)
        theta = _ridge_designs(inst, inst.columns, [1e12])[:, 0, 0]
        assert np.max(np.abs(theta)) < 1e-9

    def test_residual_monotone_in_regularization(self, multi_scenario):
        inst = link_factor(multi_scenario)
        gram_top = float(np.linalg.eigvalsh(dense_terms(inst)[0])[-1])
        deltas = np.geomspace(1e-10 * gram_top, 1e2 * gram_top, 13)
        thetas = _ridge_designs(inst, inst.columns, deltas)
        residuals = [inst.objective(theta)[0] for theta in thetas[:, :, 0].T]
        assert all(a <= b * (1 + 1e-9) for a, b in zip(residuals, residuals[1:]))

    @pytest.mark.parametrize("beta", [1.0, 0.3, 0.1])
    def test_first_feasible_regularization_beats_every_feasible_candidate(self, beta):
        # The delta search keeps the first feasible value of its default
        # grid; since residuals grow with delta, no feasible dense ridge
        # candidate -(U + delta I)^{-1} v on that grid does better.
        for seed in (1, 2, 3):
            config = multi_radar_config(seed=seed)
            config = dataclasses.replace(
                config, target=dataclasses.replace(config.target, beta_max=beta))
            inst = link_factor(build_scenario(config))
            _, sol = mmse_designs(inst)[0]
            assert np.max(np.abs(sol.theta)) <= beta * (1 + 1e-12)
            u_mat, v_vec, _ = dense_terms(inst)
            lam_top = float(np.linalg.eigvalsh(u_mat)[-1])
            candidates = [-np.linalg.solve(u_mat + delta * np.eye(inst.n_elements), v_vec)
                          for delta in np.geomspace(1e-12 * lam_top, 1e4 * lam_top, 40)]
            feasible = [theta for theta in candidates
                        if np.max(np.abs(theta)) <= beta * (1 + 1e-12)]
            assert feasible
            for theta in feasible:
                assert sol.objective <= (1 + 1e-9) * inst.objective(theta)[0], seed

    def test_delta_search_picks_smallest_feasible_residual(self, multi_scenario):
        inst = link_factor(multi_scenario)
        delta, sol = mmse_designs(inst)[0]
        assert np.max(np.abs(sol.theta)) <= 1.0 + 1e-9
        # Residuals grow with the regularization, so the chosen value sits
        # at the bottom of the feasible part of the default grid.
        gram_top = float(np.linalg.eigvalsh(dense_terms(inst)[0])[-1])
        assert delta <= 1e-11 * gram_top

    def test_delta_search_widens_default_grid(self):
        config = multi_radar_config(n1x=2)
        config = dataclasses.replace(
            config, target=dataclasses.replace(config.target, beta_max=0.05))
        scenario = build_scenario(config)
        _, sol = mmse_designs(link_factor(scenario))[0]
        assert np.max(np.abs(sol.theta)) <= 0.05 + 1e-12

    def test_stacked_residual_equals_objective(self, multi_scenario):
        rng = np.random.default_rng(16)
        inst = link_factor(multi_scenario)
        theta = 0.6 * unit_phases(rng, inst.n_elements)
        residual = float(np.linalg.norm(inst.d_mat @ theta + inst.columns[:, 0]) ** 2)
        assert residual == pytest.approx(link_sum_oracle(multi_scenario, theta),
                                         rel=1e-9)


class TestBaselines:
    def test_single_codeword(self):
        config = single_radar_config(n1x=1)
        config = dataclasses.replace(
            config, target=dataclasses.replace(config.target, n1y=1, n2y=1))
        scenario = build_scenario(config)
        sol = codebook_designs(link_factor(scenario))[0]
        np.testing.assert_allclose(sol.theta, [1.0 + 0.0j])

    def test_codebook_beats_random_on_average(self):
        dft_vals, random_vals = [], []
        for seed in range(100):
            scenario = build_scenario(single_radar_config(seed=seed))
            dft_vals.append(codebook_designs(link_factor(scenario))[0].objective)
            theta = random_phase(8, 1.0, seed + 50_000)
            random_vals.append(sum_power(theta, scenario))
        assert np.mean(dft_vals) <= np.mean(random_vals)

    def test_codebook_deterministic(self, multi_scenario):
        a = codebook_designs(link_factor(multi_scenario))[0]
        b = codebook_designs(link_factor(multi_scenario))[0]
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_random_phase_contract(self):
        theta = random_phase(16, 0.7, 42)
        np.testing.assert_allclose(np.abs(theta), 0.7, atol=1e-12)
        np.testing.assert_array_equal(theta, random_phase(16, 0.7, 42))
        assert not np.array_equal(theta, random_phase(16, 0.7, 43))

    @pytest.mark.parametrize("n1, beta_max", [(0, 1.0), (4, 0.0), (4, 2.0),
                                              (4, -0.5), (4, np.nan)])
    def test_random_phase_invalid_inputs(self, n1, beta_max):
        with pytest.raises(ValueError):
            random_phase(n1, beta_max, 0)

    def test_random_phase_mean_vanishes(self):
        rng_draws = np.stack([random_phase(4, 1.0, seed)
                              for seed in range(20_000)])
        assert np.max(np.abs(rng_draws.mean(axis=0))) < 0.015

    def test_ordering_across_solvers(self):
        for seed in (3, 17):
            scenario = build_scenario(multi_radar_config(n1x=4, seed=seed))
            inst = link_factor(scenario)
            pgd = pgd_designs(inst)[0].objective
            mmse = mmse_designs(inst)[0][1].objective
            dft = codebook_designs(inst)[0].objective
            worst_random = max(sum_power(random_phase(8, 1.0, s + 0x5EED),
                                         scenario) for s in range(10))
            slack = 1e-9 * (1 + dft)
            assert pgd <= mmse + slack
            assert mmse <= dft + slack
            assert dft <= worst_random + slack


class TestMinIrsElements:
    def test_single_realization(self):
        assert min_irs_elements(0.8, 200, 1.0, 1) == 7

    def test_paper_scale_threshold(self):
        assert min_irs_elements(0.8, 200, 1.0, 20) == 12

    def test_perfect_absorption_needs_nothing(self):
        assert min_irs_elements(1.0, 200, 1.0, 20) == 0

    @pytest.mark.parametrize("kwargs", [dict(zeta_bar=-0.1, n2=10, beta_max=1.0,
                                             realizations=1),
                                        dict(zeta_bar=0.5, n2=10, beta_max=0.0,
                                             realizations=1),
                                        dict(zeta_bar=0.5, n2=10, beta_max=1.0,
                                             realizations=0),
                                        dict(zeta_bar=0.5, n2=10, beta_max=1.5,
                                             realizations=1),
                                        dict(zeta_bar=0.5, n2=10, beta_max=np.inf,
                                             realizations=1),
                                        dict(zeta_bar=0.5, n2=10, beta_max=np.nan,
                                             realizations=1)])
    def test_invalid_inputs(self, kwargs):
        with pytest.raises(ValueError):
            min_irs_elements(**kwargs)


class TestCoatingGainStatistics:
    def test_variance_and_distribution(self, single_scenario):
        # The coating gain across random phase draws behaves like a complex
        # Gaussian whose squared magnitude is exponential.
        nirs_vector = link_oracle(single_scenario)[3][0, 0]
        n2 = nirs_vector.size
        zeta = 0.8
        rng = np.random.default_rng(123)
        draws = 10_000
        phases = rng.uniform(0, 2 * np.pi, (draws, n2))
        phi = np.sqrt(1 - zeta) * np.exp(1j * phases)
        c = phi @ np.conj(nirs_vector)
        sigma2 = (1 - zeta) * n2
        assert np.var(c) == pytest.approx(sigma2, rel=0.05)
        ks = stats.kstest(np.abs(c) ** 2, "expon", args=(0, sigma2))
        assert ks.statistic < 0.02


def _random_multi_scenario(seed):
    num_radars = 2 + seed % 4
    return build_scenario(multi_radar_config(num_radars=num_radars,
                                             n1x=3 + seed % 7, seed=seed))


class TestFactorOracles:
    """Factor-form results against dense oracles built here from D and r."""

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_objective_matches_expanded_form(self, seed):
        scenario = _random_multi_scenario(seed % 10_000)
        inst = link_factor(scenario)
        u_mat, v_vec, c_const = dense_terms(inst)
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0, 1, inst.n_elements) * unit_phases(rng, inst.n_elements)
        expanded = float(np.real(np.vdot(theta, u_mat @ theta))
                         + 2.0 * np.real(np.vdot(v_vec, theta)) + c_const)
        assert inst.objective(theta)[0] == pytest.approx(expanded, rel=1e-9)
        assert inst.objective(theta)[0] == pytest.approx(sum_power(theta, scenario),
                                                      rel=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_codebook_objectives_match_codebook_matrix(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_multi_instance(rng, n1x=int(rng.integers(1, 9)), ny=2,
                                     k=int(rng.integers(1, 4)),
                                     beta=float(rng.uniform(0.2, 1.0)))
        n = inst.n_elements
        idx = np.arange(n)
        codebook = inst.beta_max * np.exp(-2j * np.pi * np.outer(idx, idx) / n)
        explicit = np.sum(np.abs(inst.d_mat @ codebook + inst.columns) ** 2, axis=0)
        objectives = _codebook_objectives(np.fft.fft(inst.d_mat, axis=1), inst.beta_max,
                                          inst.columns)[:, 0]
        np.testing.assert_allclose(objectives, explicit, rtol=1e-9)
        sol = codebook_designs(inst)[0]
        best = int(np.argmin(explicit))
        assert sol.objective <= explicit[best] * (1 + 1e-9)
        np.testing.assert_allclose(sol.theta, codebook[:, int(np.argmin(objectives))],
                                   atol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_ridge_candidates_match_dense_solve(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_multi_instance(rng, n1x=int(rng.integers(1, 9)), ny=2,
                                     k=int(rng.integers(1, 4)))
        u_mat, v_vec, _ = dense_terms(inst)
        lam_top = float(np.linalg.eigvalsh(u_mat)[-1])
        deltas = lam_top * np.geomspace(1e-3, 1e2, 6)
        thetas = _ridge_designs(inst, inst.columns, deltas)[:, :, 0]
        eye = np.eye(inst.n_elements)
        for col, delta in enumerate(deltas):
            dense = -np.linalg.solve(u_mat + delta * eye, v_vec)
            np.testing.assert_allclose(thetas[:, col], dense, rtol=1e-9,
                                       atol=1e-12 * np.linalg.norm(dense))
            assert inst.objective(thetas[:, col])[0] == pytest.approx(
                inst.objective(dense)[0], rel=1e-9)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_step_bound_is_exact_top_eigenvalue(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_multi_instance(rng, n1x=int(rng.integers(1, 9)), ny=2,
                                     k=int(rng.integers(1, 4)))
        lam_top = float(np.linalg.eigvalsh(dense_terms(inst)[0])[-1])
        assert float(inst.svd[1][0]) ** 2 == pytest.approx(lam_top, rel=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reduced_factor_keeps_the_objective_over_the_box(self, seed):
        rng = np.random.default_rng(seed)
        # Random factors include K^2 > N1 (P not square); steering-error and
        # true factors have parallel rows (k, j) and (j, k), so D is rank deficient.
        factors = [random_multi_instance(rng, n1x=int(rng.integers(1, 9)), ny=2,
                                         k=int(rng.integers(1, 4)),
                                         beta=float(rng.uniform(0.2, 1.0))),
                   steering_error_factor(2 + seed % 4, seed % 10_000,
                                         float(rng.choice([0.5, 1.0, 2.0]))),
                   link_factor(_random_multi_scenario(seed % 10_000))]
        for inst in factors:
            reduced = inst.reduced
            k = reduced.d_mat.shape[0] - 1
            np.testing.assert_array_equal(reduced.d_mat[k], 0.0)
            r_red = reduced.columns[:, 0]
            u_mat, v_vec, c_const = dense_terms(inst)
            n = inst.n_elements
            for amps in (np.ones(n), rng.uniform(0, 1, n)):
                theta = inst.beta_max * amps * unit_phases(rng, n)
                dense = float(np.real(np.vdot(theta, u_mat @ theta))
                              + 2.0 * np.real(np.vdot(v_vec, theta)) + c_const)
                residual = reduced.d_mat @ theta + r_red
                bound = (1e-13 + 64 * np.finfo(float).eps) * objective_scale(inst)
                assert abs(dense - float(np.real(np.vdot(residual, residual)))) <= bound

    def test_zero_link_matrix_reduces_to_the_residual_row(self):
        inst = QcqpInstance(np.zeros((4, 3)), np.array([1.0, 2.0, 0.0, 1j]), 0.5)
        assert inst.reduced.d_mat.shape == (1, 3)
        for sol in (pgd_designs(inst)[0], mmse_designs(inst)[0][1], codebook_designs(inst)[0]):
            assert np.max(np.abs(sol.theta)) <= 0.5
            assert sol.objective == pytest.approx(6.0, rel=1e-15)

    @pytest.mark.parametrize("config, rows", [("radar1-n8", 1), ("radars3-n50", 5),
                                              ("radars5-n800", 11)])
    def test_golden_configs_reduce_to_their_numerical_rank(self, config, rows):
        golden = Path(__file__).parent / "golden" / f"{config}.json"
        inst = link_factor(build_geometry(ScenarioConfig.load(golden)).draw(1))
        # The kept rows, then the one residual row.
        assert inst.reduced.d_mat.shape == (rows + 1, inst.n_elements)

    def test_single_link_recovers_closed_form_inputs(self, single_scenario):
        # The one-link factor's row is a * u^H and its coating term a * c.
        inst = link_factor(single_scenario)
        amp = abs(inst.d_mat[0, 0])
        u, c = inst.d_mat[0].conj() / amp, inst.columns[0, 0] / amp
        _, _, u_oracle, u_nirs = link_oracle(single_scenario)
        np.testing.assert_allclose(u, u_oracle[0, 0], rtol=1e-12)
        assert c == pytest.approx(np.vdot(u_nirs[0, 0], single_scenario.target.nirs.phi),
                                  rel=1e-12)

    @pytest.mark.parametrize("n1x", [4, 25])
    @pytest.mark.parametrize("num_radars", [2, 3, 4, 5])
    def test_designs_do_not_depend_on_the_radar_order(self, num_radars, n1x):
        # Reversing the radars permutes the link rows: the same objective, so
        # the same true power of every design.  Both orders draw one coating.
        for seed in range(1, 21):
            config = multi_radar_config(num_radars=num_radars, n1x=n1x, seed=seed)
            truth = link_factor(build_scenario(config))
            reverse = link_factor(build_scenario(
                dataclasses.replace(config, radars=config.radars[::-1])))
            p0 = truth.objective(np.zeros(truth.n_elements))[0]
            for name in ("pgd", "mmse", "dft-codebook"):
                power = truth.objective(SOLVERS[name](truth, [seed])[0].theta)[0]
                permuted = reverse.objective(SOLVERS[name](reverse, [seed])[0].theta)[0]
                assert abs(permuted - power) <= 1e-9 * p0, (name, seed)


class TestColumnBatches:
    """A batched design answers each coating-term column as it answers that
    column's one-column factor."""

    @staticmethod
    def _columns(num_radars):
        # N1 = 4 at a 0.05 cap; the scales mix min-norm exits with Newton
        # solves and default ridge grids with widened ones, over 120 columns
        # (several ridge and codebook chunks), held as one batched problem.
        config = multi_radar_config(num_radars=num_radars, n1x=2)
        config = dataclasses.replace(
            config, target=dataclasses.replace(config.target, beta_max=0.05))
        geometry = build_geometry(config)
        truth = geometry.factor(geometry.coatings(range(120)))
        r_mat = truth.columns * np.tile([1e-4, 1.0, 1e3, 1e8], 30)
        problem = QcqpInstance(truth.d_mat, r_mat, 0.05)
        return problem, [QcqpInstance(problem.d_mat, r, 0.05) for r in r_mat.T]

    @staticmethod
    def _assert_same(batch, single):
        np.testing.assert_allclose(batch.theta, single.theta, rtol=0, atol=1e-12)
        assert batch.objective == pytest.approx(single.objective, rel=1e-9, abs=1e-300)
        assert (batch.solver, batch.iterations, batch.termination) == (
            single.solver, single.iterations, single.termination)

    def test_each_column_matches_its_single_instance(self):
        problem, singles = self._columns(3)
        pgd = pgd_designs(problem)
        assert {sol.termination for sol in pgd} == {"min-norm", "newton"}
        mmse = mmse_designs(problem)
        assert {sol.iterations for _, sol in mmse} == {1, 40, 56, 72}
        codebook = codebook_designs(problem)
        for t, inst in enumerate(singles):
            self._assert_same(pgd[t], pgd_designs(inst)[0])
            delta, sol = mmse_designs(inst)[0]
            assert mmse[t][0] == delta
            self._assert_same(mmse[t][1], sol)
            self._assert_same(codebook[t], codebook_designs(inst)[0])

    def test_each_column_matches_reverse_alignment(self):
        problem, singles = self._columns(1)
        for sol, inst in zip(alignment_designs(problem), singles):
            self._assert_same(sol, alignment_designs(inst)[0])

    def test_reduced_problem_holds_each_columns_reduction(self):
        problem, singles = self._columns(3)
        assert problem.reduced is problem.reduced
        assert problem.columns.shape == (9, 120)
        for t, inst in enumerate(singles):
            np.testing.assert_array_equal(inst.columns[:, 0], problem.columns[:, t])
            np.testing.assert_allclose(inst.reduced.columns, problem.reduced.columns[:, t:t + 1],
                                       rtol=0, atol=1e-12 * np.linalg.norm(inst.columns))

    @pytest.mark.parametrize("name", list(SOLVERS))
    def test_reported_objective_is_the_factors_own(self, name):
        # Every design reports ||D theta_t + r_t||^2 of its own column, bit for
        # bit, also mmse and dft-codebook, which choose by reduced-factor values.
        config = multi_radar_config(num_radars=1 if name == "reverse-alignment" else 3)
        geometry = build_geometry(config)
        seeds = np.array([1, 2, 3])
        problems = [geometry.factor(geometry.coatings(seeds))]
        if name != "reverse-alignment":
            # Min-norm exits beside Newton solves, default and widened ridge grids.
            problems.append(self._columns(3)[0])
        for problem in problems:
            solutions = SOLVERS[name](problem, np.arange(problem.columns.shape[1]))
            want = problem.objective(np.column_stack([sol.theta for sol in solutions]))
            assert [sol.objective for sol in solutions] == want.tolist()

    def test_objective_is_each_columns_squared_norm(self):
        problem, _ = self._columns(3)
        rng = np.random.default_rng(8)
        d_mat, r_mat = problem.d_mat, problem.columns
        n, t_count = problem.n_elements, r_mat.shape[1]
        theta = 0.05 * unit_phases(rng, n)
        thetas = 0.05 * rng.uniform(0, 1, (n, t_count)) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, (n, t_count)))
        # One design for every column, then one design per column.
        for got, designs in ((problem.objective(theta), [theta] * t_count),
                             (problem.objective(thetas), list(thetas.T))):
            want = [np.linalg.norm(d_mat @ th + r) ** 2 for th, r in zip(designs, r_mat.T)]
            assert got.shape == (t_count,)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("certificate", [
        lambda problem, lam: lagrange_semiclosed(problem, lam),
        lambda problem, lam: dual_value(problem, lam),
        lambda problem, lam: kkt_certificate(problem, ReflectionSolution(
            np.zeros(problem.n_elements), 0.0, "pgd"))])
    def test_certificates_reject_a_batch(self, certificate):
        # They check one problem; on several columns they once failed with a
        # bare broadcasting error.
        problem, singles = self._columns(3)
        lam = np.ones(problem.n_elements)
        with pytest.raises(ValueError, match="one problem, got 120 coating-term columns"):
            certificate(problem, lam)
        certificate(singles[0], lam)


def dense_barrier(inst, gap):
    """Log-barrier solve on the real 2 N1 form with a dense Hessian (test oracle).

    Minimizes t ||A x + b||^2 - sum log(beta^2 - |x_n|^2) by damped Newton
    steps with a backtracking line search, growing t tenfold, until the
    central-path bound N1 / t on the suboptimality falls below ``gap``.
    """
    d, r, beta = inst.d_mat, inst.columns[:, 0], inst.beta_max
    n = d.shape[1]
    a = np.block([[d.real, -d.imag], [d.imag, d.real]])
    b = np.concatenate([r.real, r.imag])
    idx = np.arange(n)

    def barrier_objective(x, t):
        slack = beta ** 2 - x[:n] ** 2 - x[n:] ** 2
        if np.any(slack <= 0):
            return np.inf
        res = a @ x + b
        return t * (res @ res) - np.sum(np.log(slack))

    x = np.zeros(2 * n)
    t = 1.0 / max(float(b @ b), 1e-300)
    while True:
        for _ in range(200):
            re, im = x[:n], x[n:]
            slack = beta ** 2 - re ** 2 - im ** 2
            grad = 2 * t * a.T @ (a @ x + b) + 2 * x / np.concatenate([slack, slack])
            hess = 2 * t * a.T @ a
            hess[idx, idx] += 2 / slack + 4 * re ** 2 / slack ** 2
            hess[idx + n, idx + n] += 2 / slack + 4 * im ** 2 / slack ** 2
            hess[idx, idx + n] += 4 * re * im / slack ** 2
            hess[idx + n, idx] += 4 * re * im / slack ** 2
            step_dir = -np.linalg.solve(hess, grad)
            decrement = -grad @ step_dir
            if decrement / 2 <= 1e-12:
                break
            step, base = 1.0, barrier_objective(x, t)
            while (barrier_objective(x + step * step_dir, t) > base - 0.25 * step * decrement
                   and step > 1e-14):
                step *= 0.5
            x = x + step * step_dir
        if n / t <= gap:
            return x[:n] + 1j * x[n:]
        t *= 10.0


def objective_scale(inst):
    """The objective scale of the ``pgd_designs`` gap test."""
    n, beta = inst.n_elements, inst.beta_max
    lam_max = float(np.linalg.norm(inst.d_mat, 2)) ** 2
    r = inst.columns[:, 0]
    v_norm = float(np.linalg.norm(inst.d_mat.conj().T @ r))
    return (lam_max * beta ** 2 * n + 2 * v_norm * beta * np.sqrt(n)
            + float(np.real(np.vdot(r, r))))


def ill_conditioned_factor(rng, decades):
    """Random factor whose singular values span ``decades`` orders of magnitude,
    with a coating term large enough that the amplitude caps bind."""
    m, n = int(rng.integers(2, 7)), int(rng.integers(3, 11))
    rank = min(m, n)
    p = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0][:, :rank]
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0][:, :rank]
    d = (p * np.geomspace(1.0, 10.0 ** -decades, rank)) @ q.conj().T
    r = rng.normal(size=m) + 1j * rng.normal(size=m)
    r *= rng.uniform(0.5, 3.0) * np.sqrt(n) / np.linalg.norm(r)
    return QcqpInstance(d, r, float(rng.uniform(0.3, 1.0)))


def steering_error_factor(num_radars, seed, error_deg):
    scenario = build_scenario(with_seed(multi_radar_config(num_radars=num_radars), seed))
    angles = [inject_aoa_error(scenario.geometry.true_angles[k], error_deg, seed + k)
              for k in range(num_radars)]
    return link_factor(scenario, angles)


class TestNewtonFinish:
    """Certified dual Newton solves against the dense barrier oracle."""

    def test_stalled_sensed_design_is_certified(self):
        # Default three-radar config, master seed 2, 16 snapshots: projected
        # gradient alone exhausted 100 000 iterations on this design.
        seed = int(trial_seeds(2, 1)[0])
        scenario = build_scenario(with_seed(multi_radar_config(), seed))
        angles, g2 = sense([scenario], 16, [seed + 0xA0A])[0]
        design = link_factor(scenario, angles, g2)
        sol = pgd_designs(design)[0]
        assert sol.termination == "newton"
        assert np.max(np.abs(sol.theta)) <= design.beta_max
        assert sol.objective == design.objective(sol.theta)[0]
        threshold = 1e-10 * (sol.objective + 1e-2 * objective_scale(design))
        oracle = dense_barrier(design, 1e-2 * threshold)
        assert sol.objective <= design.objective(oracle)[0] + threshold
        assert design.objective(oracle)[0] <= sol.objective + 1e-2 * threshold

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 7.0))
    @settings(max_examples=20, deadline=None)
    def test_matches_dense_barrier_on_ill_conditioned_factors(self, seed, decades):
        inst = ill_conditioned_factor(np.random.default_rng(seed), decades)
        sol = pgd_designs(inst)[0]
        assert np.max(np.abs(sol.theta)) <= inst.beta_max
        assert sol.objective == inst.objective(sol.theta)[0]
        threshold = 1e-10 * (sol.objective + 1e-2 * objective_scale(inst))
        f_dense = inst.objective(dense_barrier(inst, 1e-2 * threshold))[0]
        # Both are certified: the solve within the threshold of the optimum,
        # the dense oracle within its central-path bound above it.
        assert sol.objective <= f_dense + threshold
        assert f_dense <= sol.objective + 1e-2 * threshold
