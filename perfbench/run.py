#!/usr/bin/env python3
"""secrid benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload secret_small --seed 1 --seconds 12 --trace 0

A closed loop with one client: the next op starts when the previous one has
returned.  Times are wall times scaled to a nominal machine speed (see
Speed).  With --trace 0 it prints the end-to-end metrics; with --trace 1
it runs the workload half untraced, half traced, then the layer probes,
and prints the per-layer metrics; layer self times cover the traced
workload half only.  Every line before the last is for
people; the last line is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import traceback
from collections import deque
from pathlib import Path
from time import perf_counter

from workloads import OUT, SRC, WORKLOADS, SetupError

ROOT = SRC.parent
# What the calibration kernel takes on the machine the benchmark was defined
# on, in its usual state.  Reported times are scaled to this speed.
CAL_NOMINAL_S = 300e-6


def calibration_kernel() -> int:
    """1,500 calls of a table-lookup multiply, shaped like the program's
    inner loops; ~0.3 ms."""
    exp, log = list(range(512)), list(range(256))

    def mul(a, b):
        return exp[log[a] + log[b]] if a and b else 0

    acc = 1
    for i in range(1500):
        acc = mul(i & 255, (acc + i) & 255)
    return acc


class Speed:
    """How fast the machine runs at the moment, relative to nominal.

    On a shared machine the same op can take 1.6x longer for seconds at a
    time while neighbours load the core.  The kernel above is timed at least
    every 20 ms, and the three latest timings, none older than 100 ms, give
    the factor nominal / median.  An op's wall time is scaled by the mean of
    the factors just before and just after it, so after a long op fresh
    timings are taken.  The kernel runs between ops, never inside one."""

    EVERY_S = 0.02
    STALE_S = 0.1

    def __init__(self) -> None:
        self.samples: deque[tuple[float, float]] = deque(maxlen=3)  # (taken at, took)

    def _sample(self) -> None:
        start = perf_counter()
        calibration_kernel()
        end = perf_counter()
        self.samples.append((end, end - start))

    def factor(self) -> float:
        if not self.samples or perf_counter() - self.samples[-1][0] >= self.EVERY_S:
            self._sample()
        while perf_counter() - self.samples[0][0] > self.STALE_S:
            self._sample()
        return CAL_NOMINAL_S / statistics.median(took for _, took in self.samples)

    def time(self, fn) -> tuple[object, float, float]:
        """Run fn; return its result, its wall time and its scaled time."""
        before = self.factor()
        start = perf_counter()
        result = fn()
        wall = perf_counter() - start
        return result, wall, wall * (before + self.factor()) / 2


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = math.ceil(round(pct * len(ordered) / 100, 6))  # round off float error
    return ordered[max(0, rank - 1)]


def unit_of(name: str) -> str:
    """Per-layer units follow the metric name: `x_ms`, `x_us_per_tag`,
    `x_ns_per_coeff.c5151`, `x_ratio`; anything else is a count."""
    match = re.search(r"_(ms|us|ns|s)(_per_[a-z]+)?(\.|$)", name)
    if match:
        return match.group(1)
    return "ratio" if name.endswith("ratio") else "count"


def load_secrid_api(tracer=None):
    """Import secrid from this checkout's src/, never from anywhere else."""
    if not (SRC / "secrid" / "__init__.py").is_file():
        raise SetupError(f"no secrid package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from spans import load_api

    api = load_api(tracer)
    import secrid

    if Path(secrid.__file__).resolve().parent != (SRC / "secrid").resolve():
        raise SetupError(f"imported secrid from {secrid.__file__}, not from {SRC}")
    return api


def timed_setup(workload, api=None) -> tuple[object, float]:
    """Imports (unless api is given), tables and inputs, in scaled seconds."""
    speed = Speed()
    total = 0.0
    if api is None:
        api, _, total = speed.time(load_secrid_api)
    for step in workload.setup_steps(api):
        total += speed.time(step)[2]
    return api, total


def child_setup(args) -> float:
    """Set up the workload again in a fresh interpreter, as the first run did."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SetupError(f"setup in a child process failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, api, seconds: float, min_ops: int):
    """Whole cycles until both the wall time and the op count are reached.
    Returns the scaled op times, the wall op times and the failure count."""
    tracer = api.tracer
    speed = Speed()
    scaled: list[float] = []
    wall: list[float] = []
    failed = 0

    def guarded(label, op):
        try:
            if tracer is None:
                return op(api)
            tracer.op += 1
            with tracer.span("bench", f"op.{label}"):
                return op(api)
        except Exception:  # a crash is a failed op, not a lost one
            traceback.print_exc()
            return False

    start = perf_counter()
    while True:
        for label, op in workload.cycle():
            ok, took, took_scaled = speed.time(lambda: guarded(label, op))
            wall.append(took)
            scaled.append(took_scaled)
            failed += not ok
        if perf_counter() - start >= seconds and len(scaled) >= min_ops:
            return scaled, wall, failed


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def provenance(args, cpus: set[int]) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "secrid").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "cpu": cpu,
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cli_entry": "python -m secrid.cli (no secrid console script under PYTHONPATH=src)",
    }


def end_to_end(workload, args, api, setup_times) -> tuple[dict, int, int, str]:
    times, wall, failed = measure(workload, api, args.seconds, workload.min_ops)
    ms = [t * 1e3 for t in times]
    metrics = {
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_tail": (nearest_rank(ms, workload.tail_pct), "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(children=workload.name == "cold_cli"), "MB"),
        "ok_ratio": ((len(times) - failed) / len(times), "ratio"),
    }
    beyond = sum(v > metrics["op_ms_tail"][0] for v in ms)
    note = (f"op_ms_tail is p{workload.tail_pct:g} of N={len(times)} ops "
            f"({beyond} beyond it); setup_s is the median of {len(setup_times)} set-ups; "
            f"unscaled wall: op_ms_p50 {statistics.median(wall) * 1e3:.6g}, "
            f"ops_per_s {len(wall) / sum(wall):.6g}")
    return metrics, len(times), failed, note


def traced(workload, args, api) -> tuple[dict, int, int, str]:
    from probes import run_probes
    from spans import OP_LAYERS, Tracer

    half = args.seconds / 2
    plain, _, plain_failed = measure(workload, api, half, 1)
    tracer = Tracer()
    tapi = load_secrid_api(tracer)
    spanned, _, spanned_failed = measure(workload, tapi, half, 1)
    # self times are the workload's alone; the probes' spans carry no op id
    self_ns = tracer.self_ns_by_layer()
    tracer.op = -1
    probe_metrics, probe_failed = run_probes(tapi, tracer, random.Random(f"probes/{args.seed}"), args.seed)
    metrics = {name: (value, unit_of(name)) for name, value in probe_metrics.items()}
    for layer in OP_LAYERS:
        metrics[f"{layer}.self_s"] = (self_ns.get(layer, 0) / 1e9, "s")
    overhead = (len(plain) / sum(plain)) / (len(spanned) / sum(spanned))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}.jsonl"
    tracer.write(trace_path)
    attempted = len(plain) + len(spanned)
    note = (f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}; "
            f"overhead from {len(plain)} untraced and {len(spanned)} traced ops")
    return metrics, attempted, plain_failed + spanned_failed + probe_failed, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and one set-up, for the smoke tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # the calibration kernel and the ops, CLI children included, share one core
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    try:
        api, first = timed_setup(workload)
        if args.setup_only:
            print(json.dumps({"setup_s": first}))
            return 0
        if args.trace:
            setup_note = f"set-up {first:.3f} s"
            metrics, attempted, failed, note = traced(workload, args, api)
        else:
            setup_times = [first] + [
                child_setup(args) if workload.setup_in_child
                else timed_setup(workload, api)[1]
                for _ in range(workload.setup_reps - 1)
            ]
            setup_note = "set-ups " + ", ".join(f"{t:.3f}" for t in setup_times) + " s"
            metrics, attempted, failed, note = end_to_end(workload, args, api, setup_times)
    except SetupError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    finally:
        workload.close()

    failed += workload.setup_failed
    print("provenance " + json.dumps(provenance(args, cpus), sort_keys=True))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {setup_note}; {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
