"""cliquelab benchmark: workloads measured from outside the package.

    python3 bench/run.py --workload soundness --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --one-op

A run starts fresh workload processes (worker.py) one after the other, each
importing cliquelab from this checkout's `src` and calling
`cliquelab.cli.main(argv)` in-process.  The first SETUPS - 1 processes only
set up (import, inputs, one untimed warm-up op on fixed inputs) so that
set-up time is a median; the last one also runs whole rounds of timed ops for --seconds.  With
--trace 1 a single process alternates untraced and traced rounds and the run
reports per-layer figures instead.  --one-op runs a single op, without
warm-up.  Outputs are then checked against computations made apart from the
program (checks.py).

With --workload and without --one-op, the last line of stdout is one JSON
object: correct, attempted, failed and metrics.  Otherwise every workload
runs in turn and prints one such line that also names its workload.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import spans
from workloads import WARM_UP_KEY, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUPS = 3
RUN_TIMEOUT_S = 170  # all processes of one run

# BLAS pools would otherwise spin on the second core during check_edge_rule's
# float64 products and count as this process's CPU.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "trials_per_s": "1/s",
    "op_wall_p50_s": "s",
    "cpu_per_trial_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Span name -> metric prefix; every one is self seconds per trial.
LAYER_SPANS = (
    "oracles.den_leq_k",
    "rgp.product_graph",
    "rgp.check_edge_rule",
    "graph.from_bool_matrix",
    "graph.to_bool_matrix",
    "rgp.implied_edges",
    "oracles.max_clique",
    "formats.dump_graph",
    "formats.load_graph",
    "formats.dump_family",
    "verify.clopper_pearson",
    "ensembles.sample_er",
    "ensembles.sample_planted",
    "rgp.sample_family",
    "verify.run_trials",
)
PER_LAYER = {
    **{f"{name}.s": "s" for name in LAYER_SPANS},
    "cli.with_budget.self_s": "s",
    "exactmath.binom_cdf.calls": "count",
    "verify.run_trials.overlap": "ratio",
    "rgp.product_edges": "count",
    "rgp.pairs_checked": "count",
    "oracles.omega": "count",
    "trace.overhead_s": "s",
    "trace.uncovered_share": "ratio",
}


def _spawn(
    workload: str, seed: int, seconds: float, mode: str, run_dir: str, k: int,
    deadline: float,
) -> dict:
    """Run one workload process to its end; its record, with set-up time."""
    workdir = os.path.join(run_dir, f"worker-{k}")
    os.makedirs(workdir)
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--src", SRC,
        "--opdir", os.path.join(run_dir, "op"), "--workdir", workdir,
    ]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - spawned),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} {mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    with open(os.path.join(workdir, "record.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    record["setup_s"] = record["setup_end"] - spawned
    record["workdir"] = workdir
    return record


def _check(workload: str, seed: int, records: list[dict]) -> list[str]:
    """Problems with the outputs; an empty list when they are correct."""
    timed = records[-1]
    problems = []
    for rec in records:
        for key in rec["mismatches"]:
            problems.append(f"{workload}: op {key} wrote other bytes than before")
        for key, digests in rec["first"].items():
            if timed["first"].get(key, digests) != digests:
                problems.append(f"{workload}: op {key} differs between processes")
    keep = os.path.join(timed["workdir"], "keep")
    keys = set(timed["first"]) - {WARM_UP_KEY}
    try:
        problems.extend(checks.CHECKS[workload](seed, keep, keys))
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"{workload}: outputs could not be checked: {exc!r}")
    return problems


def _ops(records: list[dict]) -> tuple[list[dict], int, int]:
    timed = [op for op in records[-1]["ops"] if op["timed"]]
    done = [op for op in timed if not op["failed"]]
    for op in timed:
        if op["failed"]:
            print(f"op {op['key']} failed: {op['codes']}\n{op['log']}", file=sys.stderr)
    return done, len(timed), len(timed) - len(done)


def end_to_end(records: list[dict]) -> tuple[dict[str, float], int, int]:
    done, attempted, failed = _ops(records)
    trials = sum(op["trials"] for op in done)
    wall = sum(op["wall_s"] for op in done)
    values = {
        "trials_per_s": trials / wall if wall else 0.0,
        "op_wall_p50_s": statistics.median(op["wall_s"] for op in done) if done else 0.0,
        "cpu_per_trial_s": sum(op["cpu_s"] for op in done) / trials if trials else 0.0,
        "peak_rss_mb": max(rec["maxrss_kb"] for rec in records) / 1024,
        "setup_s": statistics.median(rec["setup_s"] for rec in records),
    }
    return values, attempted, failed


def per_layer(record: dict, trace: dict) -> tuple[dict[str, float], int, int]:
    done, attempted, failed = _ops([record])
    traced = [op for op in done if op["traced"]]
    untraced = [op for op in done if not op["traced"]]
    trials = sum(op["trials"] for op in traced) or 1
    figures = spans.layer_figures(
        trace["spans"], [(op["start"], op["start"] + op["wall_s"]) for op in traced]
    )
    own, counts = figures["self_s"], trace["counts"]
    values = {f"{name}.s": own.get(name, 0.0) / trials for name in LAYER_SPANS}
    values.update(
        {
            "cli.with_budget.self_s": own.get("cli.with_budget", 0.0) / trials,
            "exactmath.binom_cdf.calls": (
                counts.get("exactmath.binom_cdf.calls", 0) / trials
            ),
            "verify.run_trials.overlap": figures["run_trials_overlap"],
            "rgp.product_edges": counts.get("rgp.product_edges", 0) / trials,
            "rgp.pairs_checked": counts.get("rgp.pairs_checked", 0) / trials,
            "oracles.omega": counts.get("oracles.omega", 0) / trials,
            "trace.overhead_s": statistics.median(
                t["wall_s"] - u["wall_s"] for t, u in zip(traced, untraced)
            )
            if traced
            else 0.0,
            "trace.uncovered_share": figures["uncovered_share"],
        }
    )
    return values, attempted, failed


def run_workload(workload: str, seed: int, seconds: float, mode: str) -> dict:
    """One run of one workload; the result object that run.py prints."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    os.makedirs(OUT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        if mode == "timed":
            modes = ["setup"] * (SETUPS - 1) + ["timed"]
        else:
            modes = [mode]
        records = [
            _spawn(workload, seed, seconds, m, run_dir, k, deadline)
            for k, m in enumerate(modes)
        ]
        checked = time.monotonic()
        problems = _check(workload, seed, records)
        took = time.monotonic() - checked
        print(f"{workload}: outputs checked in {took:.1f} s", file=sys.stderr)
        if mode == "traced":
            trace_path = os.path.join(records[-1]["workdir"], "trace.json")
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
            shutil.copy(trace_path, os.path.join(OUT, f"trace-{workload}.json"))
            values, attempted, failed = per_layer(records[-1], trace)
            units = PER_LAYER
        else:
            values, attempted, failed = end_to_end(records)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=list(WORKLOADS), help="default: all, in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--one-op", action="store_true", help="one timed op, no warm-up")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cliquelab", "cli.py")):
        print(f"no cliquelab package under {SRC}", file=sys.stderr)
        return 2
    # byte-compile outside any timed window, so no set-up pays for it
    compileall.compile_dir(SRC, quiet=2)

    mode = "one-op" if args.one_op else "traced" if args.trace else "timed"
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, mode) for name in names
        }
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(names) == 1 and not args.one_op:
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        print(json.dumps({"workload": name, **result}))
    return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
