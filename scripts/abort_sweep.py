#!/usr/bin/env python3
"""Run one preset over a range of master seeds and list the seeds that abort.

Each master seed runs ``PRESET`` on ``CONFIG`` in this process, with
``--trials`` trials, exactly as ``irstealth run PRESET --config CONFIG
--trials T --seed S`` would.  A seed aborts when the run raises
``ConvergenceError`` (a Newton solve ran out of steps) or
``EstimationError`` (sensing found too few spectrum peaks).  Every aborting
seed is printed with its error, then one summary line.  Exits 1 when any
seed aborts.  Usage::

    python3 scripts/abort_sweep.py PRESET CONFIG --trials T --seeds A:B

``A:B`` names the seeds A to B, both included.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from irstealth.config import ScenarioConfig, with_seed  # noqa: E402
from irstealth.estimation import EstimationError  # noqa: E402
from irstealth.experiments import PRESET_NAMES, run_experiment  # noqa: E402
from irstealth.optimizers import ConvergenceError  # noqa: E402


def _seed_range(text: str) -> range:
    first, sep, last = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}")
    try:
        first, last = int(first), int(last)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be integers, got {text!r}") from None
    if not 0 <= first <= last:
        raise argparse.ArgumentTypeError(f"need 0 <= A <= B, got {text!r}")
    return range(first, last + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("preset", choices=PRESET_NAMES)
    parser.add_argument("config", help="scenario config JSON")
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--seeds", type=_seed_range, required=True,
                        help="master seeds A:B, both included")
    args = parser.parse_args()

    config = ScenarioConfig.load(args.config)
    aborted = 0
    for seed in args.seeds:
        try:
            run_experiment(args.preset, with_seed(config, seed), args.trials)
        except (ConvergenceError, EstimationError) as exc:
            aborted += 1
            print(f"seed {seed}: {type(exc).__name__}: {exc}", flush=True)
    print(f"{aborted} of {len(args.seeds)} seeds aborted ({args.preset}, "
          f"{args.config}, {args.trials} trials, seeds "
          f"{args.seeds.start}:{args.seeds.stop - 1})")
    return 1 if aborted else 0


if __name__ == "__main__":
    sys.exit(main())
