"""Run-to-run spread of the end-to-end metrics against their bounds.

Usage (from the repository root)::

    python3 e2ebench/spread.py [--workload W ...] [--runs 10] [--sets 2]

Runs the benchmark command of BENCHMARK.json ``--runs`` times per
workload and set, each run with its own ``--seed`` (set ``s`` uses
seeds ``s * runs + 1`` to ``(s + 1) * runs``), and prints for every
end-to-end metric each set's median and its spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as
a share of the median.  A spread above the metric's bound, a later
median that differs from the first by more than the bound (in either
direction), a failed check, or a failed-operation share that differs
between sets is flagged ``FAIL``; a spread above a third of the bound is
flagged ``wide``.  Exits 1 if anything is flagged ``FAIL``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args(argv)
    metrics = bench["end_to_end"]
    bad = False
    for workload in args.workload or names:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                out = run_once(bench["command"], workload, seed,
                               bench["run_seconds"])
                runs.append(out)
                print(f"# {workload} set {s + 1} seed {seed}: correct="
                      f"{out['correct']} attempted={out['attempted']} "
                      f"failed={out['failed']}", flush=True)
            sets.append(runs)
        print(f"{workload}")
        if not all(r["correct"] for runs in sets for r in runs):
            print("  FAIL: a run failed its checks")
            bad = True
        shares = {
            Fraction(sum(r["failed"] for r in runs),
                     sum(r["attempted"] for r in runs))
            for runs in sets
        }
        if len(shares) > 1:
            print(f"  FAIL: failed-operation shares differ: {sorted(shares)}")
            bad = True
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            cells, flags = [], []
            medians = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                width = spread(values) if len(values) > 1 else 0.0
                cells.append(f"median {medians[-1]:.6g} spread {width:.3f}")
                if width > bound:
                    flags.append("FAIL spread")
                elif width > bound / 3:
                    flags.append("wide")
            for later in medians[1:]:
                change = (later - medians[0]) / medians[0] if medians[0] else 0.0
                if abs(change) > bound:
                    flags.append("FAIL median")
            bad |= any(f.startswith("FAIL") for f in flags)
            print(f"  {name:16s} bound {bound:<5} " + " | ".join(cells)
                  + (f"  [{', '.join(flags)}]" if flags else ""))
            if args.verbose:
                for runs in sets:
                    print("    " + " ".join(
                        f"{r['metrics'][name]['value']:.5g}" for r in runs))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
