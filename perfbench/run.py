"""Layered benchmark of irstealth through its command line entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-n50 --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` the run
reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
one traced round.  Every metric is printed by name with its unit, then the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this directory
for the workloads, the seed rule and the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 7          # fresh processes timed to their first operation
# One BLAS thread: at the small sizes that dominate sweep-n50 and sensing a
# second OpenBLAS thread only adds hand-off and spin time, and the spare
# core keeps the harness and other processes off the measured one.
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("designs_per_s", "1/s"), ("peak_rss_mb", "MB"))


def _per_design(key):
    return lambda s, designs: s["calls"].get(key, 0) / designs


def _self(key):
    return lambda s, designs: s["self_s"].get(key, 0.0)


def _probe_sum(key, per_design=False):
    def value(s, designs):
        total = sum(s["probes"].get(key, ()))
        return total / designs if per_design else total
    return value


# name, unit, function name that must exist (None for layers), value(summary, designs)
PER_LAYER = (
    ("arrays.calls", "count", None, lambda s, d: s["calls"].get("arrays", 0)),
    ("arrays.self_s", "s", None, _self("arrays")),
    ("channel.calls", "count", None, lambda s, d: s["calls"].get("channel", 0)),
    ("config.self_s", "s", None, _self("config")),
    ("config.build_scenario.calls_per_design", "count", "config.build_scenario",
     _per_design("config.build_scenario")),
    ("power_model.self_s", "s", None, _self("power_model")),
    ("power_model.sum_power.self_s", "s", "power_model.sum_power",
     _self("power_model.sum_power")),
    ("power_model.cascaded_vectors.calls_per_design", "count",
     "power_model.cascaded_vectors", _per_design("power_model.cascaded_vectors")),
    ("power_model.beamforming_gains.calls_per_design", "count",
     "power_model.beamforming_gains", _per_design("power_model.beamforming_gains")),
    ("optimizers.self_s", "s", None, _self("optimizers")),
    ("optimizers.build_instance.self_s", "s", "optimizers.build_instance",
     _self("optimizers.build_instance")),
    ("optimizers.build_instance.bytes", "B", "optimizers.build_instance",
     lambda s, d: max(s["probes"].get("instance_bytes", ()), default=0)),
    ("optimizers.solve_pgd.self_s", "s", "optimizers.solve_pgd",
     _self("optimizers.solve_pgd")),
    ("optimizers.solve_pgd.iterations", "count", "optimizers.solve_pgd",
     _probe_sum("pgd_iterations")),
    ("optimizers.mmse_delta_search.self_s", "s", "optimizers.mmse_delta_search",
     _self("optimizers.mmse_delta_search")),
    ("optimizers.mmse_delta_search.candidates_per_design", "count",
     "optimizers.mmse_delta_search", _probe_sum("ridge_candidates", per_design=True)),
    ("optimizers.dft_codebook_design.self_s", "s", "optimizers.dft_codebook_design",
     _self("optimizers.dft_codebook_design")),
    ("estimation.self_s", "s", None, _self("estimation")),
    ("estimation.music_aoa.self_s", "s", "estimation.music_aoa",
     _self("estimation.music_aoa")),
    ("estimation.collect_snapshots.self_s", "s", "estimation.collect_snapshots",
     _self("estimation.collect_snapshots")),
    ("estimation.ls_recover.self_s", "s", "estimation.ls_recover",
     _self("estimation.ls_recover")),
    ("experiments.self_s", "s", None, _self("experiments")),
    ("experiments.steering_error_design.self_s", "s",
     "experiments.steering_error_design", _self("experiments.steering_error_design")),
    ("experiments.emit_csv.self_s", "s", "experiments.emit_csv",
     _self("experiments.emit_csv")),
    ("cli.self_s", "s", None, _self("cli")),
)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown (not a git checkout)"
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return "unknown"


def launch(workload, seed, seconds, mode, workdir, env):
    """Run one worker process to its end and return its record."""
    record = os.path.join(workdir, f"{mode}-{time.monotonic_ns()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workdir", workdir, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--record", record]
    launched = now()
    proc = subprocess.run(cmd + ["--launched", repr(launched)], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr}")
    with open(record, encoding="utf-8") as fh:
        return json.load(fh)


def verify(workload, ops):
    """Check every operation; returns designs per op, the problems found and
    the largest relative deviation of ``no-irs`` from the reference model."""
    from checks import Checker
    checker = Checker(workloads.CONFIGS)
    round_ops = workloads.ROUNDS[workload]
    designs, problems = [], []
    for i, rec in enumerate(ops):
        op = round_ops[i % len(round_ops)]
        name = f"op {i} ({op.preset} {op.config} --seed {rec['seed']})"
        if rec["status"] != 0:
            designs.append(0)
            if not (op.expect_error and rec["error"] == op.expect_error):
                problems.append(f"{name} exited {rec['status']}: {rec['error']}")
            continue
        try:
            count, bad = checker.check(op, rec["seed"], rec["out"])
        except (OSError, ValueError) as exc:
            count, bad = 0, [f"unreadable output: {exc}"]
        designs.append(count)
        problems += [f"{name}: {p}" for p in bad]
    return designs, problems, checker.worst_no_irs


def round_rate(workload, ops, designs) -> float:
    """Designs per second of a typical round.

    Each operation of the round is charged the median time and designs of
    its kind in this run, so a stretch of slow operations on a shared host,
    or one trial that iterates far longer than the rest, moves the figure
    little.  A failed operation contributes its time and no designs.
    """
    round_ops = workloads.ROUNDS[workload]
    times, counts = {}, {}
    for i, (rec, count) in enumerate(zip(ops, designs)):
        op = round_ops[i % len(round_ops)]
        times.setdefault(op, []).append(rec["end"] - rec["start"])
        counts.setdefault(op, []).append(count)
    return (sum(statistics.median(counts[op]) for op in round_ops)
            / sum(statistics.median(times[op]) for op in round_ops))


def timed_run(workload, seed, seconds, workdir, env) -> dict:
    """Set-up samples, then the timed worker; its record gains ``setups``."""
    launch(workload, seed, 0, "setup", workdir, env)  # warm file and bytecode caches
    setups = [launch(workload, seed, 0, "setup", workdir, env)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    record = launch(workload, seed, seconds, "timed", workdir, env)
    record["setups"] = setups + [record["setup_s"]]
    return record


def end_to_end_metrics(workload, record, designs):
    metrics = {"setup_s": statistics.median(record["setups"]),
               "designs_per_s": round_rate(workload, record["ops"], designs),
               "peak_rss_mb": record["peak_rss_kb"] / 1024.0}
    return metrics, {}


def per_layer_metrics(workload, seed, record, designs):
    """Layer metrics of a traced record, and the names whose function is gone."""
    import tracing
    summary = tracing.summarize(record["spans"], record["results"])
    total = max(sum(designs), 1)
    wrapped = set(record["wrapped"])
    metrics, absent = {}, {}
    for name, _, function, value in PER_LAYER:
        if function is not None and function not in wrapped:
            metrics[name] = 0.0
            absent[name] = function
        else:
            metrics[name] = float(value(summary, total))
    ops = record["ops"]
    metrics["trace.overhead_s"] = ops[-1]["end"] - ops[0]["start"] - record["untraced_s"]
    with open(os.path.join(OUT, f"{workload}-seed{seed}-spans.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"spans": record["spans"], "results": record["results"]}, fh)
    return metrics, absent


def units(trace: int) -> dict:
    if trace:
        return {name: unit for name, unit, _, _ in PER_LAYER} | {"trace.overhead_s": "s"}
    return dict(END_TO_END)


def run_workload(workload, seed, seconds, trace, env) -> dict:
    workdir = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if trace:
            record = launch(workload, seed, 0, "traced", workdir, env)
        else:
            record = timed_run(workload, seed, seconds, workdir, env)
        ops = record["ops"]
        designs, problems, worst_no_irs = verify(workload, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        metrics, absent = per_layer_metrics(workload, seed, record, designs)
    else:
        metrics, absent = end_to_end_metrics(workload, record, designs)
    info = dict(record["env"], nproc=len(os.sched_getaffinity(0)),
                commit=git_commit(), workload=workload, workload_seed=seed,
                trace=trace, package=record["package"])
    result = {"correct": not problems, "attempted": len(ops),
              "failed": sum(1 for r in ops if r["status"] != 0),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units(trace).items()}}
    print(f"== workload {workload} (seed {seed}, trace {trace})")
    print("env " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"operations attempted={result['attempted']} failed={result['failed']} "
          f"designs={sum(designs)} correct={str(result['correct']).lower()}")
    if worst_no_irs is not None:
        print(f"reference model: largest |no-irs - P0| / P0 = {worst_no_irs:.2e}")
    for i, rec in enumerate(ops):
        if rec["status"] != 0:
            print(f"failed op {i}: {rec['preset']} {rec['config']} --seed "
                  f"{rec['seed']} exit {rec['status']}: {rec['error']}")
    for problem in problems[:20]:
        print(f"CHECK FAILED {problem}")
    for name, entry in result["metrics"].items():
        note = f"  (absent: {absent[name]} no longer exists)" if name in absent else ""
        print(f"{name} = {entry['value']:.6g} {entry['unit']}{note}")
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"env": info, "result": result, "ops": ops}, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.ROUNDS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "irstealth", "cli.py")):
        print(f"error: no irstealth sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    reference.selftest()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    names = tuple(workloads.ROUNDS) if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace, env)
                   for name in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{wl}.{name}": entry for wl, r in results.items()
                               for name, entry in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
