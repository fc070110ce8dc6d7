"""One workload process: set up, then run whole rounds of ``irstealth run``.

Started by ``run.py``; not meant to be run by hand.  Set-up is timed from
the launch instant the parent passes in (CLOCK_MONOTONIC, shared by all
processes) to the first operation, and covers the interpreter start,
importing irstealth and writing the scenario config files.  Each operation
is one call of ``irstealth.cli.main`` with its stdout and stderr captured.
The process writes a JSON record of every operation to ``--record``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import workloads


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be queried."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.rsplit("/", 1)[-1].lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_op(cli, op, config_path, seed, out):
    argv = ["run", op.preset, "--config", config_path, "--trials", str(op.trials),
            "--seed", str(seed), "--out", out]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = now()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            status = cli.main(argv)
        except Exception as exc:  # an uncaught error exits the real CLI with 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            status = 1
    end = now()
    lines = stderr.getvalue().strip().splitlines()
    return {"preset": op.preset, "config": op.config, "trials": op.trials,
            "seed": seed, "out": out, "status": status, "start": start, "end": end,
            "error": lines[-1] if lines else ""}


def run_rounds(cli, round_ops, paths, workload_seed, workdir, seconds, tag):
    """Whole rounds until the round boundary nearest to ``seconds``."""
    ops = []
    begin = now()
    rounds = 0
    while True:
        for op in round_ops:
            seed = workloads.op_seed(workload_seed, len(ops), op)
            out = os.path.join(workdir, f"{tag}-{len(ops):04d}.csv")
            ops.append(dict(run_op(cli, op, paths[op.config], seed, out), round=rounds))
        rounds += 1
        elapsed = now() - begin
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            return ops


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--record", required=True)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import irstealth.cli as cli
    round_ops = workloads.ROUNDS[args.workload]
    paths = {}
    for op in round_ops:
        if op.config not in paths:
            paths[op.config] = os.path.join(args.workdir, f"{op.config}.json")
            with open(paths[op.config], "w", encoding="utf-8") as fh:
                json.dump(workloads.CONFIGS[op.config], fh, indent=2, sort_keys=True)
    record = {"setup_s": now() - args.launched, "package": cli.__file__}
    if args.mode == "timed":
        record["ops"] = run_rounds(cli, round_ops, paths, args.seed, args.workdir,
                                   args.seconds, "op")
        record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    elif args.mode == "traced":
        # One round untraced, then the same round traced: the difference of
        # their durations is the tracing overhead.
        plain = run_rounds(cli, round_ops, paths, args.seed, args.workdir, 0, "plain")
        import tracing
        tracer = tracing.Tracer()
        record["wrapped"] = tracer.install()
        record["ops"] = run_rounds(cli, round_ops, paths, args.seed, args.workdir, 0,
                                   "op")
        record["untraced_s"] = plain[-1]["end"] - plain[0]["start"]
        record["spans"] = tracer.spans
        record["results"] = tracer.results
    if args.mode != "setup":
        import numpy
        record["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                         "blas_threads": blas_threads()}
        config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["env"]["blas"] = f"{config.get('name')} {config.get('version')}"
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
