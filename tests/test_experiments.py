import functools
import os
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irstealth import experiments, optimizers, power_model
from irstealth.arrays import AnglePair
from irstealth.config import (ScenarioConfig, build_geometry, build_scenario,
                              multi_radar_config, single_radar_config)
from irstealth.experiments import (PRESET_NAMES, ExperimentResult, ExperimentRow,
                                   emit_csv, inject_aoa_error, parse_csv,
                                   run_experiment, trial_seeds)
from irstealth.estimation import sense
from irstealth.optimizers import SOLVERS, ConvergenceError, pgd_designs
from irstealth.power_model import QcqpInstance, ScenarioGeometry, link_factor


class TestInjectAoaError:
    def test_zero_error_is_identity(self):
        truth = AnglePair(0.3, 0.1)
        assert inject_aoa_error(truth, 0.0, 5) == truth

    def test_exact_magnitude(self):
        truth = AnglePair(0.2, 0.0)
        for seed in range(8):
            perturbed = inject_aoa_error(truth, 2.0, seed)
            assert abs(perturbed.azimuth - truth.azimuth) == pytest.approx(
                np.deg2rad(2.0), rel=1e-12)
            assert perturbed.elevation == truth.elevation

    def test_both_signs_occur(self):
        truth = AnglePair(0.0, 0.0)
        signs = {np.sign(inject_aoa_error(truth, 1.0, seed).azimuth)
                 for seed in range(32)}
        assert signs == {-1.0, 1.0}

    def test_clamped_into_domain(self):
        truth = AnglePair(np.pi / 2 - 1e-6, 0.0)
        for seed in range(8):
            perturbed = inject_aoa_error(truth, 5.0, seed)
            assert -np.pi / 2 < perturbed.azimuth < np.pi / 2

    def test_negative_error_rejected(self):
        for error_deg in (-1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="error magnitude"):
                inject_aoa_error(AnglePair(0.0, 0.0), error_deg, 0)

    def test_deterministic(self):
        truth = AnglePair(0.1, 0.0)
        assert inject_aoa_error(truth, 1.5, 7) == inject_aoa_error(truth, 1.5, 7)


class TestTrialSeeds:
    def test_deterministic_and_distinct(self):
        a = trial_seeds(42, 16)
        np.testing.assert_array_equal(a, trial_seeds(42, 16))
        assert len(set(a.tolist())) == 16


finite_power = st.floats(0.0, 1e3, allow_nan=False)
row_st = st.builds(
    ExperimentRow,
    sweep=st.floats(-1e6, 1e6, allow_nan=False),
    solver=st.sampled_from(["pgd", "mmse", "dft-codebook", "random-phase",
                            "no-irs"]),
    trial=st.integers(0, 999),
    seed=st.integers(0, 2 ** 32 - 1),
    power_watts=finite_power,
    power_db=st.one_of(st.floats(-400, 100, allow_nan=False),
                       st.just(float("-inf"))),
)


class TestCsvRoundTrip:
    def test_empty_result_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(ExperimentResult((), ()), path)
        assert path.read_text() == "sweep,solver,trial,seed,power_watts,power_db\n"

    @given(st.lists(row_st, max_size=24))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_rows_exactly(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rows.csv")
            emit_csv(ExperimentResult((), tuple(rows)), path)
            parsed = parse_csv(path)
        want = sorted(rows, key=lambda r: (r.sweep, r.solver, r.trial))
        assert list(parsed.rows) == want

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            parse_csv(path)


class TestRunExperiment:
    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            run_experiment("power-vs-nothing", single_radar_config(), 1)

    def test_needs_trials(self):
        with pytest.raises(ValueError):
            run_experiment("power-vs-aoa-error", single_radar_config(), 0)

    def test_byte_identical_reruns(self, tmp_path):
        config = single_radar_config(seed=3)
        paths = []
        for name in ("a.csv", "b.csv"):
            result = run_experiment("power-vs-aoa-error", config, 2)
            path = tmp_path / name
            emit_csv(result, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_solver_sets_per_radar_count(self):
        single = run_experiment("power-vs-aoa-error", single_radar_config(), 1)
        multi = run_experiment("power-vs-aoa-error",
                               multi_radar_config(n1x=4), 1)
        single_solvers = {r.solver for r in single.rows}
        multi_solvers = {r.solver for r in multi.rows}
        assert "reverse-alignment" in single_solvers
        assert "mmse" in multi_solvers
        for solvers in (single_solvers, multi_solvers):
            assert {"pgd", "dft-codebook", "random-phase", "no-irs"} <= solvers

    def test_rows_sorted_and_complete(self):
        result = run_experiment("power-vs-aoa-error", single_radar_config(), 2)
        keys = [(r.sweep, r.solver, r.trial) for r in result.rows]
        assert keys == sorted(keys)
        assert len(result.rows) == 4 * 5 * 2
        assert all(r.power_watts >= 0 for r in result.rows)

    def test_baseline_ordering_in_rows(self):
        result = run_experiment("power-vs-distance", single_radar_config(), 2)
        for value in result.sweep_values:
            means = {}
            for solver in ("pgd", "reverse-alignment", "dft-codebook",
                           "random-phase", "no-irs"):
                means[solver] = np.mean([r.power_watts for r in result.rows
                                         if r.sweep == value
                                         and r.solver == solver])
            dust = 1e-12 * means["no-irs"]
            assert means["pgd"] <= means["reverse-alignment"] * (1 + 1e-8) + dust
            assert means["reverse-alignment"] <= means["dft-codebook"] + dust
            assert means["dft-codebook"] <= means["random-phase"] + dust

    def test_error_sweep_keeps_optimum_ahead_of_baselines(self):
        result = run_experiment("power-vs-aoa-error", single_radar_config(), 4)
        for value in result.sweep_values:
            means = {s: np.mean([r.power_watts for r in result.rows
                                 if r.sweep == value and r.solver == s])
                     for s in ("reverse-alignment", "dft-codebook",
                               "random-phase")}
            assert means["reverse-alignment"] <= means["dft-codebook"]
            assert means["dft-codebook"] <= means["random-phase"]

    def test_elements_sweep_reaches_stealth_at_twelve(self):
        result = run_experiment("power-vs-elements", single_radar_config(), 10)
        means = {}
        for value in result.sweep_values:
            rows = {s: np.mean([r.power_watts for r in result.rows
                                if r.sweep == value and r.solver == s])
                    for s in ("pgd", "no-irs")}
            means[value] = rows
        # Optimal power collapses once twelve elements are available.
        assert means[12.0]["pgd"] <= 1e-2 * means[12.0]["no-irs"]
        assert means[32.0]["pgd"] <= 1e-12 * means[32.0]["no-irs"]
        # The dark-panel baseline does not depend on the panel size.
        dark = [means[v]["no-irs"] for v in result.sweep_values]
        np.testing.assert_allclose(dark, dark[0], rtol=1e-9)

    def test_min_elements_preset_reaches_zero_at_prediction(self):
        result = run_experiment("min-elements-validation",
                                single_radar_config(), 20)
        assert 12.0 in result.sweep_values
        top = [r.power_watts for r in result.rows if r.sweep == 12.0]
        baseline = [r.power_watts for r in result.rows if r.sweep == 8.0]
        zero_fraction = np.mean([p <= 1e-20 for p in top])
        assert zero_fraction == 1.0
        assert np.mean(baseline) >= 0.0

    def test_estimation_preset_tracks_truth(self):
        result = run_experiment("estimation-pipeline",
                                single_radar_config(), 2)
        est = [r.power_watts for r in result.rows if r.solver == "pgd-estimated"]
        true = [r.power_watts for r in result.rows if r.solver == "pgd-true"]
        assert len(est) == len(true) == 6
        noirs = 1e-10  # generous absolute scale for a 100 m single-radar setup
        assert all(e <= t + 1e-3 * noirs for e, t in zip(est, true))

    @pytest.mark.parametrize("preset", ["power-vs-num-radars", "power-vs-aoa-error",
                                        "estimation-pipeline"])
    def test_convergence_failure_names_its_trial(self, monkeypatch, preset):
        def exhausted(instance, *args, **kwargs):
            raise ConvergenceError("no convergence within 7 iterations", None)

        # Every preset solves through the batched design; the sensing preset's
        # first group is trial 0 on its estimated parameters.
        sweep = {"power-vs-num-radars": "1", "power-vs-aoa-error": "0"}.get(preset, "16")
        monkeypatch.setattr(optimizers, "pgd_designs", exhausted)
        with pytest.raises(ConvergenceError) as err:
            run_experiment(preset, single_radar_config(seed=3), 2)
        seed = int(trial_seeds(3, 2)[0])
        assert str(err.value) == (f"no convergence within 7 iterations at sweep "
                                  f"{sweep}, trial 0, seed {seed}")

    def test_mispointed_angle_sweep_completes_at_its_optimum(self):
        # At -30 degrees trial 3's link matrix has singular values from 3.2e-9
        # down to 1e-40; the full-factor Newton solve ran out of steps there.
        result = run_experiment("power-vs-angle",
                                multi_radar_config(num_radars=3, n1x=4), 5)
        trials = {}
        for r in result.rows:
            trials.setdefault((r.sweep, r.trial), {})[r.solver] = r.power_watts
        assert len(trials) == 13 * 5
        for powers in trials.values():
            slack = 1e-9 * powers["no-irs"]
            assert all(powers["pgd"] <= power + slack for power in powers.values())

    def test_num_radars_preset_sweeps_prefixes(self):
        result = run_experiment("power-vs-num-radars",
                                multi_radar_config(num_radars=3, n1x=4), 1)
        assert result.sweep_values == (1.0, 2.0, 3.0)
        # Extra probing radars can only add received power at a dark panel.
        dark = [next(r.power_watts for r in result.rows
                     if r.sweep == k and r.solver == "no-irs")
                for k in (1.0, 2.0, 3.0)]
        assert dark[0] <= dark[1] <= dark[2]

    def test_angle_sweep_peaks_on_target(self):
        result = run_experiment("power-vs-angle", single_radar_config(), 2)
        dark = {r.sweep: [] for r in result.rows}
        for r in result.rows:
            if r.solver == "no-irs":
                dark[r.sweep].append(r.power_watts)
        means = {k: np.mean(v) for k, v in dark.items()}
        assert max(means, key=means.get) == 0.0

    def test_distance_sweep_decays(self):
        result = run_experiment("power-vs-distance", single_radar_config(), 2)
        dark = [np.mean([r.power_watts for r in result.rows
                         if r.sweep == d and r.solver == "no-irs"])
                for d in result.sweep_values]
        assert all(a >= b for a, b in zip(dark, dark[1:]))


class TestGeometryReuse:
    """A preset builds each sweep point's geometry once, not once per trial."""

    @staticmethod
    def _surface_calls(monkeypatch, preset, config, trials):
        """Directions of every whole-surface response call, one tuple a call."""
        calls = []
        build = power_model.upa_responses

        def counting(geom, azimuths, elevations, wavelength):
            if geom.nx == config.target.n1x + config.target.n2x:
                calls.append(tuple(zip(azimuths, elevations)))
            return build(geom, azimuths, elevations, wavelength)

        monkeypatch.setattr(power_model, "upa_responses", counting)
        run_experiment(preset, config, trials)
        return calls

    @pytest.mark.parametrize("trials", [1, 4])
    def test_surface_response_once_per_point_and_direction(self, monkeypatch, trials):
        config = multi_radar_config(num_radars=3, n1x=4)
        calls = self._surface_calls(monkeypatch, "power-vs-num-radars", config, trials)
        # One call toward all three radars: the points of 1 and 2 radars read
        # the leading rows of its blocks.
        assert [len(directions) for directions in calls] == [3]

    def test_steering_errors_reuse_perturbed_directions(self, monkeypatch):
        config = multi_radar_config(num_radars=3, n1x=4)
        calls = self._surface_calls(monkeypatch, "power-vs-aoa-error", config, 6)
        # The true directions once, then one call at each of the three
        # nonzero errors toward every trial's own perturbed directions, trial
        # by trial, however many sign patterns the trials share.
        truth = build_geometry(config).true_angles
        seeds = trial_seeds(config.seed, 6)
        want = [tuple((a.azimuth, a.elevation) for a in truth)]
        for error in (0.5, 1.0, 2.0):
            steered = [inject_aoa_error(a, error, int(seed) + k)
                       for seed in seeds for k, a in enumerate(truth)]
            want.append(tuple((a.azimuth, a.elevation) for a in steered))
        patterns = {tuple(experiments._error_sign(int(seed) + k) for k in range(3))
                    for seed in seeds}
        assert 1 < len(patterns) < 6
        assert calls == want

    @pytest.mark.parametrize("preset, builds", [("power-vs-aoa-error", 1),
                                                ("power-vs-num-radars", 1),
                                                ("estimation-pipeline", 1)])
    def test_one_geometry_per_distinct_point(self, monkeypatch, preset, builds):
        # The error and sensing presets keep their config, so all their sweep
        # values share one geometry and one true problem too; the radar-count
        # sweep reads every count from one geometry.  The sensing preset takes
        # its coatings from the scenarios it draws, so it draws none apart.
        count, problems = [], []
        build, coatings = experiments.build_geometry, ScenarioGeometry.coatings
        monkeypatch.setattr(experiments, "build_geometry",
                            lambda cfg: count.append(cfg) or build(cfg))
        monkeypatch.setattr(ScenarioGeometry, "coatings",
                            lambda geometry, seeds: problems.append(seeds)
                            or coatings(geometry, seeds))
        run_experiment(preset, multi_radar_config(num_radars=3, n1x=4), 2)
        assert len(count) == builds
        assert len(problems) == (0 if preset == "estimation-pipeline" else builds)

    def test_radar_counts_share_one_true_factor(self, monkeypatch):
        # Every count reads its link rows from the factor of all K radars.
        calls = []
        factor = ScenarioGeometry.factor
        monkeypatch.setattr(ScenarioGeometry, "factor",
                            lambda geometry, phis, angles=None, g2=None: calls.append(
                                (angles, g2)) or factor(geometry, phis, angles, g2))
        result = run_experiment("power-vs-num-radars",
                                multi_radar_config(num_radars=4, n1x=4), 3)
        assert result.sweep_values == (1.0, 2.0, 3.0, 4.0)
        assert calls == [(None, None)]

    @pytest.mark.parametrize("preset", ["power-vs-distance", "power-vs-elements",
                                        "power-vs-angle", "power-vs-num-radars",
                                        "min-elements-validation"])
    def test_sweep_draws_its_coatings_once(self, monkeypatch, preset):
        # Every point of a sweep has the same coating grid and trial seeds.
        problems = []
        coatings = ScenarioGeometry.coatings
        monkeypatch.setattr(ScenarioGeometry, "coatings",
                            lambda geometry, seeds: problems.append(seeds)
                            or coatings(geometry, seeds))
        config = (single_radar_config(n1x=4) if preset == "min-elements-validation"
                  else multi_radar_config(num_radars=3, n1x=4))
        result = run_experiment(preset, config, 2)
        assert len(result.sweep_values) > 1
        assert len(problems) == 1

    def test_sensing_preset_draws_each_trial_once(self, monkeypatch):
        draws = []
        draw = ScenarioGeometry.draw
        monkeypatch.setattr(ScenarioGeometry, "draw",
                            lambda geometry, seed: draws.append(seed) or draw(geometry, seed))
        config = single_radar_config(seed=5)
        run_experiment("estimation-pipeline", config, 3)
        assert draws == [int(seed) for seed in trial_seeds(config.seed, 3)]

    def test_sensing_preset_draws_each_coating_once(self, monkeypatch):
        # The designs read the coatings of the scenarios that were sensed.
        coatings = []
        coating = ScenarioGeometry._coating
        monkeypatch.setattr(ScenarioGeometry, "_coating",
                            lambda geometry, rng: coatings.append(rng) or coating(geometry, rng))
        run_experiment("estimation-pipeline", multi_radar_config(num_radars=3, n1x=4), 3)
        assert len(coatings) == 3

    @pytest.mark.parametrize("preset", ["power-vs-aoa-error", "power-vs-num-radars",
                                        "power-vs-distance", "power-vs-angle",
                                        "power-vs-elements"])
    def test_random_phases_drawn_once_per_trial_and_panel_size(self, monkeypatch, preset):
        calls = []
        draw = optimizers.random_phase
        monkeypatch.setattr(optimizers, "random_phase",
                            lambda *args: calls.append(args) or draw(*args))
        config = multi_radar_config(num_radars=3, n1x=4)
        result = run_experiment(preset, config, 5)
        seeds = [int(seed) + 0x5EED for seed in trial_seeds(config.seed, 5)]
        beta = config.target.beta_max
        # Only the element-count sweep changes the panel size between points.
        sizes = (result.sweep_values if preset == "power-vs-elements"
                 else [config.target.n1x * config.target.n1y])
        assert calls == [(int(n1), beta, seed) for n1 in sizes for seed in seeds]


class TestReducedProblemReuse:
    """Every design run on one batched problem shares its one reduced problem."""

    @staticmethod
    def _reduced_problems(monkeypatch, preset, config, trials):
        """Every problem whose reduction the preset computes, in order."""
        count = []
        reduce = QcqpInstance.reduced.func
        counting = functools.cached_property(lambda problem: count.append(problem)
                                             or reduce(problem))
        counting.__set_name__(QcqpInstance, "reduced")
        monkeypatch.setattr(QcqpInstance, "reduced", counting)
        run_experiment(preset, config, trials)
        return count

    def test_one_reduction_per_point(self, monkeypatch):
        # pgd, mmse and dft-codebook read the reduction of each of the
        # points of 1, 2 and 3 radars.
        config = multi_radar_config(num_radars=3, n1x=4)
        assert len(self._reduced_problems(monkeypatch, "power-vs-num-radars", config, 4)) == 3

    def test_one_reduction_per_steering_group(self, monkeypatch):
        config = multi_radar_config(num_radars=3, n1x=4)
        patterns = {tuple(experiments._error_sign(int(seed) + k) for k in range(3))
                    for seed in trial_seeds(config.seed, 6)}
        assert len(patterns) > 1
        # The true problem of all six trials at zero error, then one stack of
        # six link matrices at each of the three nonzero errors, however many
        # sign patterns the trials draw.
        problems = self._reduced_problems(monkeypatch, "power-vs-aoa-error", config, 6)
        assert [(p.d_mat.shape[:-1], p.columns.shape[1]) for p in problems] == (
            [((9,), 6)] + [((6, 9), 6)] * 3)

    def test_sensing_preset_designs_on_the_truth_once(self, monkeypatch):
        config = ScenarioConfig.load(Path(__file__).parent / "golden" / "radar1-n8.json")
        batches = []
        solve = optimizers.pgd_designs

        def counting(problem, *args):
            batches.append((problem.d_mat.shape[:-2], problem.columns.shape[1]))
            return solve(problem, *args)

        monkeypatch.setattr(optimizers, "pgd_designs", counting)
        rows = run_experiment("estimation-pipeline", config, 4).rows
        # One stack of the four trials' sensed problems at each of three
        # snapshot counts, and one true batch of all four trials on one link
        # matrix, designed once, after the first stack.
        assert batches == [((4,), 4), ((), 4), ((4,), 4), ((4,), 4)]
        true = {}
        for row in rows:
            if row.solver == "pgd-true":
                true.setdefault(row.sweep, []).append((row.trial, row.seed, row.power_watts))
        assert sorted(true) == [16.0, 32.0, 64.0]
        assert true[16.0] == true[32.0] == true[64.0]


class TestLargePanel:
    def test_ten_thousand_elements_stay_in_link_dimensions(self):
        # A dense N1 x N1 complex matrix alone would take 1.6 GB here; the
        # link factor of 25 links keeps every design in O(K^2 N1) memory.
        scenario = build_scenario(multi_radar_config(num_radars=5, n1x=5000))
        assert scenario.target.irs_geometry.num_elements == 10_000
        tracemalloc.start()
        try:
            truth = link_factor(scenario)
            powers = {name: truth.objective(solve(truth, [7])[0].theta)[0]
                      for name, solve in SOLVERS.items() if name != "reverse-alignment"}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200e6
        assert powers["pgd"] <= 1e-6 * powers["no-irs"]
        assert powers["pgd"] <= powers["mmse"] * (1 + 1e-9) + 1e-9 * powers["no-irs"]


# The batched presets on a one-radar N1 = 8 panel (the config of
# tests/golden/radar1-n8.json) and a three-radar one.
BATCH_CASES = ([(1, preset) for preset in PRESET_NAMES]
               + [(3, preset) for preset in PRESET_NAMES
                  if preset != "min-elements-validation"])
BASELINES = ("no-irs", "random-phase")


def _batch_config(num_radars):
    if num_radars == 1:
        return single_radar_config(n1x=4)
    return multi_radar_config(num_radars=num_radars, n1x=4)


def _coating_power(geometry, seed):
    r = link_factor(geometry.draw(seed)).columns[:, 0]
    return float(np.real(np.vdot(r, r)))


def _one_trial_powers(preset, scenario, seed, value):
    """Powers of one trial's rows by the one-trial path, and its coating-only
    power."""
    truth = link_factor(scenario)
    p0 = truth.objective(np.zeros(truth.n_elements))[0]
    if preset == "estimation-pipeline":
        angles, g2 = sense([scenario], int(value), [seed + 0xA0A])[0]
        estimated = link_factor(scenario, angles, g2)
        return ({"pgd-estimated": truth.objective(pgd_designs(estimated)[0].theta)[0],
                 "pgd-true": truth.objective(pgd_designs(truth)[0].theta)[0]}, p0)
    design = truth
    if preset == "power-vs-aoa-error":
        design = link_factor(scenario, [
            inject_aoa_error(scenario.geometry.true_angles[k], value, seed + k)
            for k in range(scenario.num_radars)])
    fitted = "reverse-alignment" if scenario.num_radars == 1 else "mmse"
    names = (("reverse-alignment",) if preset == "min-elements-validation" else
             ("pgd", fitted, "dft-codebook", "random-phase", "no-irs"))
    return {name: truth.objective(SOLVERS[name](design, [seed])[0].theta)[0]
            for name in names}, p0


def _assert_rows_agree(got, want, p0):
    """Design rows to 1e-9 of the trial's coating-only power p0, baselines to
    1e-12 relative (the tolerances of the regression captures)."""
    if got.solver in BASELINES:
        assert got.power_watts == pytest.approx(want, rel=1e-12, abs=0.0), got
    else:
        assert abs(got.power_watts - want) <= 1e-9 * p0, got


class TestTrialBatch:
    """A sweep point's trials run as one batch, with the one-trial results.

    Where the one-trial path runs out of Newton steps, the batch must stop
    with the same error, naming the same point.
    """

    @staticmethod
    def _run(preset, config, trials):
        try:
            return run_experiment(preset, config, trials).rows, None
        except ConvergenceError as exc:
            return (), str(exc)

    @pytest.mark.parametrize("num_radars, preset", BATCH_CASES)
    def test_rows_match_the_one_trial_path(self, monkeypatch, num_radars, preset):
        points, built = {}, []
        build = experiments.build_geometry
        group_rows = experiments._group_rows

        def building(cfg):
            built.append(build(cfg))
            return built[-1]

        def recording(value, *args):
            # Every design group of a point runs on the geometry built last.
            points[float(value)] = built[-1]
            return group_rows(value, *args)

        monkeypatch.setattr(experiments, "build_geometry", building)
        monkeypatch.setattr(experiments, "_group_rows", recording)
        config = _batch_config(num_radars)
        rows, failure = self._run(preset, config, 5)
        got = {(r.sweep, r.trial, r.solver): r for r in rows}
        for value, geometry in points.items():
            if preset == "power-vs-num-radars":
                # The point of k radars is the scenario of the first k alone.
                geometry = build_geometry(replace(config, radars=config.radars[:int(value)]))
            failures = []
            for trial, seed in enumerate(trial_seeds(config.seed, 5)):
                try:
                    powers, p0 = _one_trial_powers(preset, geometry.draw(int(seed)),
                                                   int(seed), value)
                except ConvergenceError as exc:
                    failures.append(f"{exc} at sweep {value:g}, trial {trial}, seed {seed}")
                    continue
                if failure is not None:
                    continue
                for solver, power in powers.items():
                    _assert_rows_agree(got.pop((value, trial, solver)), power, p0)
            if failures:
                # The batch stops at the first point with a failing trial.
                assert failure in failures
                return
        assert failure is None and not got

    @pytest.mark.parametrize("num_radars, preset", BATCH_CASES)
    def test_rows_do_not_depend_on_batch_size(self, num_radars, preset):
        config = _batch_config(num_radars)
        geometry = build_geometry(config)
        few, few_failure = self._run(preset, config, 3)
        many, many_failure = self._run(preset, config, 7)
        if few_failure is not None or many_failure is not None:
            # A trial that fails does so in every batch that holds it, so the
            # larger run stops where the smaller one does, unless one of its
            # own trials fails first.
            assert many_failure is not None
            named = int(many_failure.split(", trial ")[1].split(",")[0])
            assert many_failure == few_failure or named >= 3
            return
        many = {(r.sweep, r.solver, r.trial): r for r in many}
        for row in few:
            twin = many[(row.sweep, row.solver, row.trial)]
            assert twin.seed == row.seed
            _assert_rows_agree(twin, row.power_watts, _coating_power(geometry, row.seed))

    def test_failure_in_a_steering_stack_names_its_trial(self, monkeypatch):
        config = multi_radar_config(num_radars=3, n1x=4, seed=5)
        seeds = trial_seeds(5, 6)
        solve = optimizers.pgd_designs
        calls = []

        def failing(problem, *args):
            # Call 1 is the unperturbed point; call 2 the stack of all six
            # trials at 0.5 degrees, whose column 4 runs out of steps.
            calls.append((problem.d_mat.shape[:-2], problem.columns.shape[1]))
            if len(calls) == 2:
                raise ConvergenceError("no convergence", None, 4)
            return solve(problem, *args)

        monkeypatch.setattr(optimizers, "pgd_designs", failing)
        with pytest.raises(ConvergenceError) as err:
            run_experiment("power-vs-aoa-error", config, 6)
        assert calls == [((), 6), ((6,), 6)]
        assert str(err.value) == f"no convergence at sweep 0.5, trial 4, seed {seeds[4]}"
        assert err.value.column == 4
