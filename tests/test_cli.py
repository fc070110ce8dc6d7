import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from irstealth.config import build_scenario, multi_radar_config, single_radar_config
from irstealth.experiments import parse_csv
from irstealth.optimizers import SOLVERS
from irstealth.power_model import link_factor


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "irstealth", *args],
                          capture_output=True, text=True)


class TestMinElements:
    def test_prints_predicted_count(self):
        proc = run_cli("min-elements", "--zeta-bar", "0.8", "--n2", "200",
                       "--beta-max", "1.0", "--realizations", "20")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "12"

    def test_rejects_bad_efficiency(self):
        proc = run_cli("min-elements", "--zeta-bar", "1.5", "--n2", "200")
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_rejects_amplitude_cap_outside_unit_interval(self):
        for beta_max in ("inf", "2", "nan"):
            proc = run_cli("min-elements", "--zeta-bar", "0.8", "--n2", "200",
                           "--beta-max", beta_max)
            assert proc.returncode == 1
            assert proc.stdout == ""
            assert "error: beta_max must be in (0, 1], got" in proc.stderr


class TestSolve:
    def test_prints_design_and_objective(self, tmp_path):
        path = tmp_path / "single.json"
        single_radar_config(seed=4).save(path)
        proc = run_cli("solve", "--config", str(path), "--solver",
                       "reverse-alignment")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "solver: reverse-alignment"
        assert lines[1].startswith("objective_watts: ")
        assert float(lines[1].split(": ")[1]) <= 1e-20
        assert sum(1 for line in lines if line.startswith("theta[")) == 8

    def test_default_config_used_when_omitted(self):
        proc = run_cli("solve", "--solver", "pgd")
        assert proc.returncode == 0

    def test_reports_how_the_solve_ended(self, tmp_path):
        path = tmp_path / "multi.json"
        multi_radar_config(n1x=4, seed=4).save(path)
        proc = run_cli("solve", "--config", str(path), "--solver", "pgd")
        assert proc.returncode == 0
        report = dict(line.split(": ") for line in proc.stdout.splitlines()[1:6])
        assert report["termination"] in ("min-norm", "newton")
        assert int(report["iterations"]) >= 0
        assert float(report["kkt_residual"]) >= 0
        objective = float(report["objective_watts"])
        assert abs(float(report["duality_gap_watts"])) <= 1e-9 * max(objective, 1e-30) + 1e-30

    def test_baseline_reports_optimality_measures_only(self):
        proc = run_cli("solve", "--solver", "random-phase")
        assert proc.returncode == 0
        keys = [line.split(": ")[0] for line in proc.stdout.splitlines()[:4]]
        assert keys == ["solver", "objective_watts", "kkt_residual", "duality_gap_watts"]

    def test_mmse_requires_multiple_radars_config(self, tmp_path):
        path = tmp_path / "multi.json"
        multi_radar_config(n1x=4, seed=4).save(path)
        proc = run_cli("solve", "--config", str(path), "--solver", "mmse")
        assert proc.returncode == 0

    def test_reverse_alignment_rejects_multi_radar(self, tmp_path):
        path = tmp_path / "multi.json"
        multi_radar_config(n1x=4, seed=4).save(path)
        proc = run_cli("solve", "--config", str(path), "--solver",
                       "reverse-alignment")
        assert proc.returncode == 1
        assert "single-radar" in proc.stderr

    def test_dark_panel_solver(self):
        proc = run_cli("solve", "--solver", "no-irs")
        assert proc.returncode == 0
        assert "theta[0] = +0.000000000000e+00+0.000000000000e+00j" in proc.stdout

    @pytest.mark.parametrize("num_radars, solver", [
        (1, "pgd"), (1, "reverse-alignment"), (1, "dft-codebook"), (1, "random-phase"),
        (1, "no-irs"), (3, "pgd"), (3, "mmse"), (3, "dft-codebook"), (3, "random-phase"),
        (3, "no-irs")])
    def test_objective_matches_the_sweep_path(self, tmp_path, num_radars, solver):
        # The sweeps and ``solve`` run one solver table; design rows agree to
        # 1e-9 of the no-irs power, baselines to 1e-12 relative.
        config = (single_radar_config(seed=4) if num_radars == 1
                  else multi_radar_config(n1x=4, seed=4))
        path = tmp_path / "config.json"
        config.save(path)
        proc = run_cli("solve", "--config", str(path), "--solver", solver)
        assert proc.returncode == 0
        objective = float(proc.stdout.splitlines()[1].split(": ")[1])
        truth = link_factor(build_scenario(config))
        power = truth.objective(SOLVERS[solver](truth, [config.seed])[0].theta)[0]
        no_irs = truth.objective(np.zeros(truth.n_elements))[0]
        if solver in ("random-phase", "no-irs"):
            assert objective == pytest.approx(power, rel=1e-12, abs=0.0)
        else:
            assert abs(objective - power) <= 1e-9 * no_irs

    def test_missing_config_file(self):
        proc = run_cli("solve", "--config", "/nonexistent/config.json")
        assert proc.returncode == 1
        assert "error:" in proc.stderr


class TestRun:
    def test_writes_csv(self, tmp_path):
        config_path = tmp_path / "single.json"
        single_radar_config(seed=2).save(config_path)
        out = tmp_path / "sweep.csv"
        proc = run_cli("run", "power-vs-aoa-error", "--config", str(config_path),
                       "--trials", "2", "--out", str(out))
        assert proc.returncode == 0
        rows = parse_csv(out).rows
        assert len(rows) == 4 * 5 * 2

    def test_seed_override_changes_rows(self, tmp_path):
        config_path = tmp_path / "single.json"
        single_radar_config(seed=2).save(config_path)
        outputs = []
        for seed in ("2", "3"):
            out = tmp_path / f"sweep{seed}.csv"
            proc = run_cli("run", "power-vs-aoa-error", "--config",
                           str(config_path), "--trials", "1", "--seed", seed,
                           "--out", str(out))
            assert proc.returncode == 0
            outputs.append(out.read_bytes())
        assert outputs[0] != outputs[1]

    def test_unknown_preset_is_usage_error(self, tmp_path):
        proc = run_cli("run", "power-vs-nothing", "--out",
                       str(tmp_path / "x.csv"))
        assert proc.returncode == 2

    def test_unwritable_output_path(self, tmp_path):
        config_path = tmp_path / "single.json"
        single_radar_config(seed=2).save(config_path)
        proc = run_cli("run", "power-vs-aoa-error", "--config", str(config_path),
                       "--trials", "1", "--out", "/nonexistent/dir/out.csv")
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_min_elements_validation_needs_one_radar(self, tmp_path):
        # The predicted count is a single-radar formula; a three-radar config
        # is rejected before any work, and no CSV is written.
        config_path = tmp_path / "multi.json"
        multi_radar_config().save(config_path)
        out = tmp_path / "x.csv"
        proc = run_cli("run", "min-elements-validation", "--config", str(config_path),
                       "--trials", "1", "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.strip() == ("error: radars: min-elements-validation needs "
                                       "exactly one radar, got 3")
        assert not out.exists()

    def test_estimation_needs_more_sensing_elements_than_radars(self, tmp_path):
        # A one-element sensing array cannot separate three radars; the run
        # names the field before any work, and no CSV is written.
        config = multi_radar_config(num_radars=3, n1x=25)
        config = dataclasses.replace(config, target=dataclasses.replace(
            config.target, cssa_lx=1, cssa_ly=1))
        config_path = tmp_path / "cssa1.json"
        config.save(config_path)
        out = tmp_path / "x.csv"
        proc = run_cli("run", "estimation-pipeline", "--config", str(config_path),
                       "--trials", "1", "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.strip() == (
            "error: target.cssa_lx: estimation-pipeline needs more sensing elements (1) "
            "than radars (3)")
        assert not out.exists()

    @pytest.mark.parametrize("unchirped", [(0,), (0, 1)])
    def test_two_unchirped_radars_are_named_before_sensing(self, tmp_path, unchirped):
        # Two zero-bandwidth pulses of one power, interval and pulse are one
        # tone; the second such radar is named and no CSV is written.  One
        # unchirped radar still senses.
        config = multi_radar_config()
        radars = tuple(dataclasses.replace(r, bandwidth=0.0) if i in unchirped else r
                       for i, r in enumerate(config.radars))
        config_path = tmp_path / "unchirped.json"
        dataclasses.replace(config, radars=radars).save(config_path)
        out = tmp_path / "x.csv"
        proc = run_cli("run", "estimation-pipeline", "--config", str(config_path),
                       "--trials", "1", "--out", str(out))
        if len(unchirped) == 1:
            assert proc.returncode == 0, proc.stderr
            assert out.exists()
        else:
            assert proc.returncode == 1
            assert proc.stderr.startswith("error: radars[1].bandwidth: ")
            assert not out.exists()

    def test_sensing_failure_is_reported_without_traceback(self, tmp_path):
        # Five-radar MUSIC finds only four peaks on a trial of this run; the
        # sensing error ends the run like every other library error.
        config_path = tmp_path / "m5.json"
        multi_radar_config(num_radars=5, n1x=4).save(config_path)
        out = tmp_path / "x.csv"
        proc = run_cli("run", "estimation-pipeline", "--config", str(config_path),
                       "--trials", "16", "--seed", "89", "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.strip() == "error: found 4 peaks, expected 5"
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class TestImport:
    def test_cli_loads_only_numpy_and_the_standard_library(self):
        # Interpreter start and this import are most of a benchmark round's
        # setup time, and numpy alone is over half of the import.
        probe = ("import sys; before = set(sys.modules); import irstealth.cli; "
                 "print(*sorted({name.partition('.')[0] for name in sys.modules} "
                 "- {name.partition('.')[0] for name in before}))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, check=True)
        loaded = set(proc.stdout.split())
        assert {"irstealth", "numpy"} <= loaded
        assert loaded - sys.stdlib_module_names <= {"irstealth", "numpy"}
