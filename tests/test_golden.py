"""Sweep CSVs regenerated and compared row by row with committed captures.

Each capture in ``tests/golden`` is the CSV of ``irstealth run PRESET
--config CONFIG.json --trials T`` (config seed 1); ``tests/golden/README.md``
says how to rewrite one.  Rows are matched on (sweep, solver, trial) with
equal seeds.  A design row must agree to 1e-9 of its trial's ``no-irs``
power P0 (taken from the capture, or computed from the trial's scenario for
presets that write no ``no-irs`` row); the ``no-irs`` and ``random-phase``
rows, which no design touches, to 1e-12 relative.  The element-count table
of ``scripts/min_elements_table.py --draws 200`` must match its capture byte
for byte.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from irstealth.config import ScenarioConfig, build_geometry
from irstealth.experiments import PRESET_NAMES, parse_csv, run_experiment
from irstealth.power_model import link_factor

GOLDEN = Path(__file__).parent / "golden"
SCRIPT = Path(__file__).parents[1] / "scripts" / "min_elements_table.py"

CASES = ([("radar1-n8", preset, 4) for preset in PRESET_NAMES]
         + [("radars3-n50", "power-vs-num-radars", 8),
            ("radars3-n50", "power-vs-aoa-error", 8),
            ("radars3-n50", "estimation-pipeline", 2),
            ("radars5-n800", "power-vs-num-radars", 1)])

BASELINES = ("no-irs", "random-phase")


def _keyed(rows):
    return {(row.sweep, row.solver, row.trial): row for row in rows}


def _no_irs_power(config, seed):
    """||r||^2 of the trial's true factor; the coating term does not depend on
    the sweep value of the presets without a ``no-irs`` row."""
    r = link_factor(build_geometry(config).draw(seed)).columns[:, 0]
    return float(np.real(np.vdot(r, r)))


@pytest.mark.parametrize("config,preset,trials", CASES)
def test_matches_capture(config, preset, trials):
    want = _keyed(parse_csv(GOLDEN / f"{config}.{preset}.csv").rows)
    scenario_config = ScenarioConfig.load(GOLDEN / f"{config}.json")
    got = _keyed(run_experiment(preset, scenario_config, trials).rows)
    assert got.keys() == want.keys()
    for key, row in want.items():
        sweep, solver, trial = key
        assert got[key].seed == row.seed, key
        if solver in BASELINES:
            assert got[key].power_watts == pytest.approx(row.power_watts, rel=1e-12,
                                                         abs=0.0), key
        else:
            no_irs = want.get((sweep, "no-irs", trial))
            p0 = (no_irs.power_watts if no_irs is not None
                  else _no_irs_power(scenario_config, row.seed))
            assert abs(got[key].power_watts - row.power_watts) <= 1e-9 * p0, key


def test_min_elements_table_matches_capture():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--draws", "200"],
                          capture_output=True, check=True)
    assert proc.stdout == (GOLDEN / "min-elements-table.draws200.txt").read_bytes()
