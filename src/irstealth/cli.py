"""Command-line front end: run preset experiments, solve one scenario, size the panel."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import (ConfigError, ScenarioConfig, build_scenario,
                     single_radar_config, with_seed)
from .estimation import EstimationError
from .experiments import PRESET_NAMES, _fmt, emit_csv, run_experiment
from .optimizers import (SOLVERS, ConvergenceError, InfeasibleError, dual_value,
                         kkt_certificate, min_irs_elements)
from .power_model import link_factor

SOLVER_NAMES = tuple(SOLVERS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="irstealth",
                                     description="IRS-aided electromagnetic "
                                                 "stealth simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a preset experiment sweep")
    run.add_argument("preset", choices=PRESET_NAMES)
    run.add_argument("--config", help="scenario config JSON (default: built-in "
                                      "single-radar setup)")
    run.add_argument("--trials", type=int, default=10)
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--out", required=True, help="output CSV path")

    mins = sub.add_parser("min-elements", help="predicted element count for stealth")
    mins.add_argument("--zeta-bar", type=float, required=True)
    mins.add_argument("--n2", type=int, required=True)
    mins.add_argument("--beta-max", type=float, default=1.0)
    mins.add_argument("--realizations", type=int, default=20)

    solve = sub.add_parser("solve", help="design a reflection vector for one scenario")
    solve.add_argument("--config", help="scenario config JSON (default: built-in "
                                        "single-radar setup)")
    solve.add_argument("--solver", choices=SOLVER_NAMES, default="pgd")
    solve.add_argument("--seed", type=int, help="override the config seed")
    return parser


_PARSER = _build_parser()


def _load_config(path, seed) -> ScenarioConfig:
    config = ScenarioConfig.load(path) if path else single_radar_config()
    if seed is not None:
        config = with_seed(config, seed)
    return config


def _cmd_run(args) -> int:
    config = _load_config(args.config, args.seed)
    result = run_experiment(args.preset, config, args.trials)
    emit_csv(result, args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 0


def _cmd_min_elements(args) -> int:
    count = min_irs_elements(args.zeta_bar, args.n2, args.beta_max,
                             args.realizations)
    print(count)
    return 0


def _cmd_solve(args) -> int:
    config = _load_config(args.config, args.seed)
    scenario = build_scenario(config)
    factor = link_factor(scenario)
    solution = SOLVERS[args.solver](factor, [config.seed])[0]
    lam, kkt = kkt_certificate(factor, solution)
    print(f"solver: {args.solver}")
    print(f"objective_watts: {_fmt(solution.objective)}")
    if solution.termination is not None:
        print(f"termination: {solution.termination}")
        print(f"iterations: {solution.iterations}")
    print(f"kkt_residual: {_fmt(kkt)}")
    print(f"duality_gap_watts: {_fmt(solution.objective - dual_value(factor, lam))}")
    for n, value in enumerate(solution.theta):
        print(f"theta[{n}] = {value.real:+.12e}{value.imag:+.12e}j")
    return 0


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    handlers = {"run": _cmd_run, "min-elements": _cmd_min_elements,
                "solve": _cmd_solve}
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError, InfeasibleError, ConvergenceError, EstimationError,
            np.linalg.LinAlgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
