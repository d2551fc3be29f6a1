"""One workload process: runs ops through `cliquelab.cli.main` in-process.

Started by run.py with the package's `src` on PYTHONPATH.  It runs one
untimed warm-up op on fixed inputs, then whole rounds of timed ops until the
time is used, and writes a JSON record of every op.  Every process of a run
writes its ops' outputs to the same directory, so that the run configuration
the CLI embeds in them, and with it their bytes, is the same in each.  The
first output of each distinct op is kept for run.py to check; every later
output of that op must match it byte for byte.  Checks that need more than
a byte comparison run in run.py, so that they add nothing to this process's
time, CPU or memory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import sys
import time
import traceback

import cliquelab
from cliquelab import cli

from spans import Tracer
from workloads import WARM_UP_KEY, WARM_UP_SEED, WORKLOADS, Op


def _peak_rss_kb() -> int:
    """This process's peak resident set in KiB.

    VmHWM, because ru_maxrss also counts the parent's resident set when the
    process was started by vfork and exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _digests(op: Op, directory: str) -> dict[str, str]:
    out = {}
    for template in op.outputs:
        path = template.replace("{dir}", directory)
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Runner:
    def __init__(self, ops: list[Op], opdir: str, keepdir: str) -> None:
        self.ops = ops
        self.opdir = opdir
        self.keepdir = keepdir
        self.records: list[dict] = []
        self.first: dict[str, dict[str, str]] = {}
        self.mismatches: list[str] = []
        os.makedirs(opdir, exist_ok=True)

    def run(self, op: Op, timed: bool, traced: bool = False) -> None:
        codes = []
        log = io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stderr(log), contextlib.redirect_stdout(log):
            for call in op.calls:
                try:
                    code = cli.main(op.argv(call, self.opdir))
                except Exception:  # an op that crashes counts as failed
                    traceback.print_exc()
                    code = -1
                codes.append(code)
                if code != 0:
                    break
        wall1, cpu1 = time.perf_counter(), time.process_time()
        failed = any(codes)
        if not failed:
            self._compare(op)
        self.records.append(
            {
                "key": op.key,
                "trials": op.trials,
                "timed": timed,
                "traced": traced,
                "start": wall0,
                "wall_s": wall1 - wall0,
                "cpu_s": cpu1 - cpu0,
                "codes": codes,
                "failed": failed,
                "log": log.getvalue()[-2000:] if failed else "",
            }
        )

    def _compare(self, op: Op) -> None:
        digests = _digests(op, self.opdir)
        if op.key not in self.first:
            self.first[op.key] = digests
            keep = os.path.join(self.keepdir, op.key)
            os.makedirs(keep)
            for name in digests:
                shutil.copy(os.path.join(self.opdir, name), keep)
        elif digests != self.first[op.key]:
            self.mismatches.append(op.key)

    def rounds(self, seconds: float, tracer: Tracer | None) -> None:
        """Whole rounds while the next one is expected to end within seconds.

        With a tracer, rounds go in pairs, untraced then traced, so every
        traced op has an untraced twin to measure the tracing overhead by.
        """
        begin = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for op in self.ops:
                self.run(op, timed=True)
            if tracer is not None:
                tracer.install()
                try:
                    for op in self.ops:
                        self.run(op, timed=True, traced=True)
                finally:
                    tracer.uninstall()
            now = time.perf_counter()
            if now - begin + (now - t0) > seconds:
                return


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument(
        "--mode", choices=["setup", "timed", "traced", "one-op"], required=True
    )
    ap.add_argument("--src", required=True, help="the package's src directory")
    ap.add_argument("--opdir", required=True, help="where ops write, shared")
    ap.add_argument("--workdir", required=True, help="this process's own files")
    args = ap.parse_args()

    package = os.path.realpath(os.path.dirname(cliquelab.__file__))
    if os.path.dirname(package) != os.path.realpath(args.src):
        print(f"cliquelab imported from {package}, not {args.src}", file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload](args.seed)
    runner = Runner(ops, args.opdir, os.path.join(args.workdir, "keep"))
    if args.mode != "one-op":
        warm_up = WORKLOADS[args.workload](WARM_UP_SEED)[0]
        runner.run(dataclasses.replace(warm_up, key=WARM_UP_KEY), timed=False)
    setup_end = time.monotonic()
    if args.mode == "one-op":
        runner.run(runner.ops[0], timed=True)
    elif args.mode != "setup":
        tracer = Tracer() if args.mode == "traced" else None
        runner.rounds(args.seconds, tracer)
        if tracer is not None:
            with open(os.path.join(args.workdir, "trace.json"), "w") as fh:
                json.dump(tracer.to_json(), fh)

    record = {
        "setup_end": setup_end,
        "ops": runner.records,
        "first": runner.first,
        "mismatches": runner.mismatches,
        "maxrss_kb": _peak_rss_kb(),
    }
    with open(os.path.join(args.workdir, "record.json"), "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
