#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and compare each end-to-end
metric's spread with its bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload oracles --seeds 1-5
    python3 perfbench/steady.py --seeds 4242 --repeat 5 --save out/held.json
    python3 perfbench/steady.py --seeds 1-10 --against perfbench/out/first.json

Runs go one after another, each as long as run_seconds in BENCHMARK.json.
For every metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median.  A spread above a third of the
bound is flagged "wide", above the bound "FAIL".  With --against, each
median is also compared with the saved set's median: worse by more than the
bound is "FAIL".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """One untraced run: its end-to-end metric values and its wall seconds."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def worse_by(metric: dict, new: float, old: float) -> float:
    """How much worse new is than old, as a share of old."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,4242")
    parser.add_argument("--repeat", type=int, default=1, help="runs per seed")
    parser.add_argument("--save", help="write the raw values to this JSON file")
    parser.add_argument("--against", help="a file written by --save to compare medians with")
    args = parser.parse_args(argv)

    seeds = [s for s in parse_seeds(args.seeds) for _ in range(args.repeat)]
    previous = json.loads(Path(args.against).read_text()) if args.against else {}
    values: dict[str, dict[str, list[float]]] = {}
    verdict = 0
    for workload in args.workload or names:
        runs, walls = zip(*(run_once(workload, seed, bench["run_seconds"]) for seed in seeds))
        values[workload] = {m["name"]: [r[m["name"]] for r in runs] for m in bench["end_to_end"]}
        print(f"{workload}: {len(runs)} runs, seeds {args.seeds} x{args.repeat}, "
              f"{statistics.median(walls):.1f} s wall per run (max {max(walls):.1f})")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[workload][name]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            status = "ok"
            if spread > bound / 3:
                status = "FAIL" if spread > bound else "wide"
            line = (f"  {name:<12} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                    f"spread {spread:7.2%} bound {bound:.0%} {status}")
            old = previous.get(workload, {}).get(name)
            if old:
                drift = worse_by(metric, median, statistics.median(old))
                line += f"  vs saved median: {drift:+.2%} worse"
                status = "FAIL" if drift > bound else status
            verdict |= status == "FAIL"
            print(line, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    return verdict


if __name__ == "__main__":
    sys.exit(main())
