#!/usr/bin/env python3
"""Write every output a refactor must keep into OUT_DIR, for ``diff -r``.

Every command runs in its own ``python -m irstealth`` (or script) process on
this checkout's sources, one output file each:

* ``golden/``: the sweep CSV of every capture in ``tests/golden`` at the
  trial count ``tests/golden/README.md`` gives;
* ``solve/``: ``irstealth solve`` with every solver that applies, on the
  golden ``radar1-n8`` and ``radars3-n50`` configs, the built-in setup and
  the three-radar template;
* ``tables/``: ``scripts/min_elements_table.py`` at its defaults and at
  ``--draws 200``;
* ``runs/``: the estimation pipeline on one and three radars, the
  five-radar radar-count sweep at seed 110008, the mispointed three-radar
  angle sweep and the three-radar angle-error sweep;
* ``paper-1/`` and ``paper-2/``: ``scripts/run_paper_experiments.py`` at
  one and two trials.

Two captures of one checkout must not differ; two checkouts whose captures
do not differ compute the same numbers.  Usage::

    python3 scripts/capture_outputs.py OUT_DIR
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

sys.path.insert(0, str(ROOT / "src"))

from irstealth.config import multi_radar_config  # noqa: E402

GOLDEN_PRESETS = ("power-vs-distance", "power-vs-elements", "power-vs-angle",
                  "power-vs-aoa-error", "power-vs-num-radars",
                  "min-elements-validation", "estimation-pipeline")
GOLDEN_CASES = ([("radar1-n8", preset, 4) for preset in GOLDEN_PRESETS]
                + [("radars3-n50", "power-vs-num-radars", 8),
                   ("radars3-n50", "power-vs-aoa-error", 8),
                   ("radars3-n50", "estimation-pipeline", 2),
                   ("radars5-n800", "power-vs-num-radars", 1)])
SOLVERS = ("pgd", "reverse-alignment", "mmse", "dft-codebook", "random-phase", "no-irs")


def _commands(out: pathlib.Path, configs: dict) -> list:
    """(argv, stdout file or None) of every capture, in run order."""
    cli = [sys.executable, "-m", "irstealth"]
    commands = [(cli + ["run", preset, "--config", str(GOLDEN / f"{name}.json"),
                        "--trials", str(trials),
                        "--out", str(out / "golden" / f"{name}.{preset}.csv")], None)
                for name, preset, trials in GOLDEN_CASES]
    multi = ["--config", configs["multi"]]
    one_radar = {"radar1-n8": ["--config", str(GOLDEN / "radar1-n8.json")], "default": []}
    for label, config in [*one_radar.items(),
                          ("radars3-n50", ["--config", str(GOLDEN / "radars3-n50.json")]),
                          ("multi", multi)]:
        for solver in SOLVERS:
            if label in one_radar or solver != "reverse-alignment":
                commands.append((cli + ["solve", *config, "--solver", solver],
                                 out / "solve" / f"{label}.{solver}.txt"))
    table = [sys.executable, str(ROOT / "scripts" / "min_elements_table.py")]
    commands += [(table, out / "tables" / "default.txt"),
                 (table + ["--draws", "200"], out / "tables" / "draws200.txt")]
    runs = {"estimation-multi": ["estimation-pipeline", *multi, "--trials", "1", "--seed", "2"],
            "estimation-default": ["estimation-pipeline", "--trials", "16"],
            "estimation-multi-4": ["estimation-pipeline", *multi, "--trials", "4"],
            "radars5-seed110008": ["power-vs-num-radars", "--config", configs["multi5"],
                                   "--trials", "8", "--seed", "110008"],
            "angle-multi3-n8": ["power-vs-angle", "--config", configs["multi3-n8"],
                                "--trials", "5", "--seed", "1"],
            "aoa-multi": ["power-vs-aoa-error", *multi, "--trials", "4", "--seed", "1"]}
    commands += [(cli + ["run", *args, "--out", str(out / "runs" / f"{label}.csv")], None)
                 for label, args in runs.items()]
    paper = [sys.executable, str(ROOT / "scripts" / "run_paper_experiments.py")]
    commands += [(paper + ["--trials", str(trials), "--out-dir", str(out / f"paper-{trials}")],
                  None) for trials in (1, 2)]
    return commands


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", help="output directory (created)")
    args = parser.parse_args()
    out = pathlib.Path(args.out_dir).resolve()
    for sub in ("configs", "golden", "solve", "tables", "runs"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    configs = {"multi": multi_radar_config(), "multi5": multi_radar_config(num_radars=5),
               "multi3-n8": multi_radar_config(num_radars=3, n1x=4)}
    for name, config in configs.items():
        configs[name] = str(out / "configs" / f"{name}.json")
        config.save(configs[name])

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for argv, stdout in _commands(out, configs):
        with open(stdout or os.devnull, "wb") as fh:
            subprocess.run(argv, stdout=fh, env=env, cwd=ROOT, check=True)
    print(f"wrote captures to {out}")


if __name__ == "__main__":
    main()
