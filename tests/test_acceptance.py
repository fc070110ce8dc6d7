"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import dataclasses
import time

import numpy as np
from scipy import stats

from conftest import (dense_terms, grid_search_min_1, grid_search_min_2,
                      link_oracle, one_link_instance, random_multi_instance,
                      random_single_instance)
from irstealth.config import (build_scenario, multi_radar_config,
                              single_radar_config, with_seed)
from irstealth.estimation import sense
from irstealth.experiments import (emit_csv, inject_aoa_error, run_experiment,
                                   trial_seeds)
from irstealth.optimizers import (SOLVERS, alignment_designs, codebook_designs,
                                  dual_value, kkt_certificate, min_irs_elements,
                                  mmse_designs, pgd_designs, random_phase)
from irstealth.power_model import link_factor, sum_power


def record(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\n[acceptance {num:02d}] {status} {description} {detail}".rstrip())
    assert passed, f"criterion {num} failed: {description} {detail}"


def test_01_single_radar_optimality_equivalence():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst_rel = 0.0
    worst_zero = 0.0
    for _ in range(200):
        inst, _, c = random_single_instance(rng)
        closed = alignment_designs(inst)[0].objective
        iterative = pgd_designs(inst)[0].objective
        worst_rel = max(worst_rel,
                        abs(closed - iterative) / (1.0 + max(closed, iterative)))
        if inst.n_elements >= np.ceil(abs(c) / inst.beta_max):
            worst_zero = max(worst_zero, closed, iterative)
    elapsed = time.monotonic() - start
    record(1, "closed form and projected gradient agree on 200 instances",
           worst_rel <= 1e-8 and worst_zero <= 1e-10 and elapsed < 10.0,
           f"(max rel diff {worst_rel:.2e}, max cancellable objective "
           f"{worst_zero:.2e}, {elapsed:.1f}s)")


def test_02_grid_search_oracle_equivalence():
    rng = np.random.default_rng(2025)
    start = time.monotonic()
    ok = True
    details = []
    for n1 in (1, 2):
        for i in range(10):
            if i % 2 == 0:
                inst, _, _ = random_single_instance(rng, n1=n1)
            else:
                inst = random_multi_instance(rng, n1x=n1, ny=1, k=2)
            sol = pgd_designs(inst)[0]
            grid = grid_search_min_1(inst) if n1 == 1 else grid_search_min_2(inst)
            u_mat, v_vec, _ = dense_terms(inst)
            eps = np.sqrt(n1) * np.hypot(0.005, inst.beta_max * 0.005)
            grad = np.linalg.norm(u_mat @ sol.theta + v_vec)
            lam_top = float(np.linalg.eigvalsh(u_mat)[-1])
            bound = 2.0 * grad * eps + lam_top * eps ** 2 + 1e-9
            gap = grid - sol.objective
            if not -1e-9 * (1 + abs(sol.objective)) <= gap <= bound:
                ok = False
                details.append(f"n1={n1} gap={gap:.3e} bound={bound:.3e}")
    elapsed = time.monotonic() - start
    record(2, "projected gradient matches exhaustive grid search",
           ok and elapsed < 120.0, f"({elapsed:.1f}s {';'.join(details)})")


def test_03_duality_gap():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for i in range(100):
        if i < 50:
            inst, _, _ = random_single_instance(rng, n1=int(rng.integers(1, 17)))
        else:
            inst = random_multi_instance(rng, n1x=int(rng.integers(2, 9)),
                                         ny=2, k=int(rng.integers(2, 4)))
        sol = pgd_designs(inst)[0]
        lam, _ = kkt_certificate(inst, sol)
        gap = abs(sol.objective - dual_value(inst, lam))
        worst = max(worst, gap / (1.0 + abs(sol.objective)))
    record(3, "zero duality gap certified on 100 instances", worst <= 1e-6,
           f"(worst normalized gap {worst:.2e})")


def test_04_minimum_element_formula():
    predicted = min_irs_elements(0.8, 200, 1.0, 20)
    scenario = build_scenario(single_radar_config(n1x=6))  # 12 elements
    nirs_vector = link_oracle(scenario)[3][0, 0]
    u = link_oracle(scenario)[2][0, 0]
    n2 = nirs_vector.size
    rng = np.random.default_rng(404)
    zero = 0
    draws = 1000
    for _ in range(draws):
        phi = np.sqrt(0.2) * np.exp(1j * rng.uniform(0, 2 * np.pi, n2))
        c = np.vdot(nirs_vector, phi)
        if alignment_designs(one_link_instance(u, c, 1.0))[0].objective <= 1e-18:
            zero += 1
    fraction = zero / draws
    record(4, "12 elements cancel the coating gain in >=95% of draws",
           predicted == 12 and fraction >= 0.95,
           f"(predicted {predicted}, zero fraction {fraction:.3f})")


def test_05_multi_radar_stealth_threshold():
    start = time.monotonic()
    config = multi_radar_config(n1x=45)  # 90 tunable elements
    worst = 0.0
    for seed in trial_seeds(config.seed, 3):
        scenario = build_scenario(with_seed(config, int(seed)))
        theta = pgd_designs(link_factor(scenario))[0].theta
        baseline = sum_power(np.zeros_like(theta), scenario)
        worst = max(worst, sum_power(theta, scenario) / baseline)
    elapsed = time.monotonic() - start
    record(5, "90 elements give full stealth against three radars",
           worst <= 1e-6 and elapsed < 60.0,
           f"(worst power ratio {worst:.2e}, {elapsed:.1f}s)")


def test_06_mmse_near_optimality_across_distances():
    config = multi_radar_config()
    worst = 0.0
    for distance in (60.0, 80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 200.0):
        factor = distance / 100.0
        radars = tuple(dataclasses.replace(
            r, position=tuple(factor * p for p in r.position))
            for r in config.radars)
        target = dataclasses.replace(
            config.target, position=tuple(factor * p
                                          for p in config.target.position))
        scaled = dataclasses.replace(config, radars=radars, target=target)
        for seed in trial_seeds(config.seed, 2):
            scenario = build_scenario(with_seed(scaled, int(seed)))
            factor = link_factor(scenario)
            pgd_theta = pgd_designs(factor)[0].theta
            mmse_theta = mmse_designs(factor)[0][1].theta
            pgd_power = sum_power(pgd_theta, scenario)
            mmse_power = sum_power(mmse_theta, scenario)
            baseline = sum_power(np.zeros_like(pgd_theta), scenario)
            # 5% relative with a numerical-zero floor: full stealth on both
            # sides counts as agreement.
            slack = 0.05 * pgd_power + 1e-9 * baseline
            excess = (mmse_power - pgd_power - slack) / baseline
            worst = max(worst, excess)
    record(6, "regularized design tracks the optimum across distances",
           worst <= 0.0, f"(worst normalized excess {worst:.2e})")


def test_07_baseline_ordering_and_ratios():
    config = single_radar_config()
    dft_vals, random_vals = [], []
    for seed in trial_seeds(config.seed, 200):
        scenario = build_scenario(with_seed(config, int(seed)))
        dft_vals.append(codebook_designs(link_factor(scenario))[0].objective)
        random_vals.append(sum_power(random_phase(8, 1.0, int(seed) + 0x5EED),
                                     scenario))
    ratio = np.mean(dft_vals) / np.mean(random_vals)

    wide = single_radar_config(n1x=25)  # 50 elements
    random_big, dark_big = [], []
    for seed in trial_seeds(wide.seed, 100):
        scenario = build_scenario(with_seed(wide, int(seed)))
        theta = random_phase(50, 1.0, int(seed) + 0x5EED)
        random_big.append(sum_power(theta, scenario))
        dark_big.append(sum_power(np.zeros(50, dtype=complex), scenario))
    reflective = np.mean(random_big) >= np.mean(dark_big)
    record(7, "codebook search halves the random-phase power",
           0.3 <= ratio <= 0.7 and reflective,
           f"(ratio {ratio:.3f}, random/no-panel "
           f"{np.mean(random_big) / np.mean(dark_big):.2f}x)")


def _aoa_error_curve(config, n_seeds=200):
    errors = (0.0, 0.5, 1.0, 2.0)
    optimal = {e: [] for e in errors}
    codebook = {e: [] for e in errors}
    optimal_name = "reverse-alignment" if len(config.radars) == 1 else "pgd"
    for seed in trial_seeds(config.seed, n_seeds):
        scenario = build_scenario(with_seed(config, int(seed)))
        truth = link_factor(scenario)
        for err in errors:
            angles = [inject_aoa_error(scenario.geometry.true_angles[k], err,
                                       int(seed) + k)
                      for k in range(scenario.num_radars)]
            design = link_factor(scenario, angles)
            for name, curve in ((optimal_name, optimal), ("dft-codebook", codebook)):
                theta = SOLVERS[name](design, [int(seed)])[0].theta
                curve[err].append(truth.objective(theta))
    means = [float(np.mean(optimal[e])) for e in errors]
    ratio = means[-1] / float(np.mean(codebook[2.0]))
    monotone = all(a <= b * (1 + 1e-9) for a, b in zip(means, means[1:]))
    return ratio, monotone, means


def test_08_aoa_error_sensitivity():
    single_ratio, single_monotone, _ = _aoa_error_curve(single_radar_config())
    multi_ratio, multi_monotone, _ = _aoa_error_curve(multi_radar_config())
    record(8, "2-degree angle error keeps the optimum below 15% of the codebook",
           single_ratio <= 0.15 and multi_ratio <= 0.15
           and single_monotone and multi_monotone,
           f"(single {single_ratio:.1%}, multi {multi_ratio:.1%}, "
           f"monotone {single_monotone and multi_monotone})")


def test_09_estimation_pipeline():
    config = multi_radar_config(lateral=0.0)  # angles on the search lattice
    scenario = build_scenario(config)
    scenario = dataclasses.replace(
        scenario, target=dataclasses.replace(scenario.target, cssa_noise=0.0))

    angles, g2 = sense([scenario], 64, [9])[0]
    truth = sorted(scenario.geometry.true_angles[k].azimuth for k in range(3))
    got = sorted(a.azimuth for a in angles)
    angle_err = max(abs(a - b) for a, b in zip(got, truth))

    gains = scenario.geometry.gains
    expected = np.array([r.tx_power for r in scenario.radars]) \
        * np.abs(gains) ** 2
    order = np.argsort([a.azimuth for a in angles])
    truth_order = np.argsort([scenario.geometry.true_angles[k].azimuth
                              for k in range(3)])
    gain_err = np.max(np.abs(g2[order] - expected[truth_order])
                      / expected[truth_order])

    est_theta = pgd_designs(link_factor(scenario, angles, g2))[0].theta
    true_theta = pgd_designs(link_factor(scenario))[0].theta
    theta_err = float(np.max(np.abs(est_theta - true_theta)))
    baseline = sum_power(np.zeros_like(true_theta), scenario)
    power_err = abs(sum_power(est_theta, scenario)
                    - sum_power(true_theta, scenario)) / baseline
    record(9, "sensing pipeline reproduces the ground-truth design",
           angle_err <= np.deg2rad(0.01) and gain_err <= 1e-10
           and theta_err <= 1e-6 and power_err <= 1e-6,
           f"(angle err {np.rad2deg(angle_err):.2e} deg, gain err "
           f"{gain_err:.1e}, theta err {theta_err:.1e})")


def test_10_coating_gain_statistics():
    scenario = build_scenario(single_radar_config())
    nirs_vector = link_oracle(scenario)[3][0, 0]
    n2 = nirs_vector.size
    rng = np.random.default_rng(1010)
    draws = 10_000
    phases = rng.uniform(0, 2 * np.pi, (draws, n2))
    phi = np.sqrt(0.2) * np.exp(1j * phases)
    c = phi @ np.conj(nirs_vector)
    sigma2 = 0.2 * n2
    var_err = abs(np.var(c) - sigma2) / sigma2
    ks = stats.kstest(np.abs(c) ** 2, "expon", args=(0, sigma2)).statistic
    record(10, "coating gain is complex Gaussian with the predicted variance",
           var_err <= 0.05 and ks < 0.02,
           f"(variance error {var_err:.3f}, KS statistic {ks:.4f})")


def test_11_deterministic_csv(tmp_path):
    config = single_radar_config(seed=11)
    contents = []
    for name in ("first.csv", "second.csv"):
        result = run_experiment("power-vs-aoa-error", config, 3)
        path = tmp_path / name
        emit_csv(result, path)
        contents.append(path.read_bytes())
    record(11, "identical config and seed emit byte-identical CSV",
           contents[0] == contents[1] and len(contents[0]) > 60,
           f"({len(contents[0])} bytes)")
