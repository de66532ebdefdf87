"""End-to-end GATEST benchmark: one command, every workload.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload gatest-s526 --seed 1 --seconds 20 --trace 0

Workloads: ``gatest-s526``, ``table6-s1423-pool``, ``service-mixed``
(see e2ebench/README.md).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  The line before it is a JSON ``info`` record
(resolved kernel, Python version, nproc, sample counts).  Failed checks
are listed on standard error and make ``correct`` false.

Every process the benchmark starts gets an environment without any
``REPRO_*`` variable, with the compiled-kernel cache, the service state
and the campaign journals under ``.bench_build/e2ebench/`` in the
checkout.  The program is imported from ``src/``; without it the
benchmark exits with status 2 before measuring anything.  Processes the
benchmark's children leave behind are adopted (``adopt_orphans``) and
every one has ended before the result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

from common import (BUILD, END_TO_END, PER_LAYER, SRC, adopt_orphans,
                    hermetic_env, reap_all)

WORKLOADS = ("gatest-s526", "table6-s1423-pool", "service-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end GATEST benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--kernel", default=None,
                        help="GA workloads only: simulation kernel backend "
                             "(for the README's reference figures; the "
                             "benchmark itself runs the default)")
    args = parser.parse_args(argv)
    if args.kernel is not None and args.workload == "service-mixed":
        parser.error("--kernel applies to the GA workloads only")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program sources under {SRC}", file=sys.stderr)
        return 2

    # Hermetic from here on: this process imports the program for its
    # checks, and everything it starts inherits the same environment.
    env = hermetic_env()
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, str(SRC))
    state = BUILD / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(state, ignore_errors=True)
    state.mkdir(parents=True)
    adopt_orphans()
    try:
        if args.workload == "service-mixed":
            from service_load import run_service

            outcome = run_service(args.seed, args.seconds, bool(args.trace),
                                  state, env)
        else:
            from ga_load import run_ga

            outcome = run_ga(args.workload, args.seed, args.seconds,
                             bool(args.trace), state, env, args.kernel)
    finally:
        reap_all()
        shutil.rmtree(state, ignore_errors=True)

    for error in outcome["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    info = dict(outcome["info"], workload=args.workload, seed=args.seed,
                python=platform.python_version(), nproc=os.cpu_count())
    print(json.dumps({"info": info}))
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not outcome["errors"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
