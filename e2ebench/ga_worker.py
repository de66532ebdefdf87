"""One GA workload in one fresh process (started by ``run.py``).

Prints ``READY <monotonic time>`` once set-up is done (imports,
synthesis, compile, kernel build, fault list), then runs whole rounds of
the workload until ``--seconds`` would be exceeded (at least one round)
and writes everything the parent needs as JSON to ``--out``.  With
``--setup-only`` it exits after the ready line.  With ``--trace 1`` it
runs one untraced round, then repeats set-up and one round under the
layer tracer.

Usage: python3 e2ebench/ga_worker.py --workload gatest-s526 --seconds 20
       --trace 0 --state DIR --out FILE
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import replace
from typing import Optional

# Each workload: circuit, config fields, pinned GA seeds, and whether the
# seeds run through the harness seed pool with a campaign journal.
WORKLOADS = {
    "gatest-s526": {
        "circuit": "s526", "config": {}, "seeds": (1, 2), "pool": False,
    },
    "table6-s1423-pool": {
        "circuit": "s1423", "config": {"fault_sample": 100, "max_vectors": 300},
        "seeds": (1, 2), "pool": True,
    },
}
SCALE = 1.0


def result_json(result) -> dict:
    """The parts of a ``TestGenResult`` the checks read."""
    return {
        "test_sequence": [list(v) for v in result.test_sequence],
        "detected": result.detected,
        "total_faults": result.total_faults,
        "detections": [
            [f.node, f.pin, f.stuck_at, frame] for f, frame in result.detections
        ],
        "trace": [
            {"kind": e.kind, "frames": e.frames, "detected": e.detected,
             "committed": e.committed}
            for e in result.trace
        ],
    }


def set_up(spec: dict, kernel: Optional[str] = None):
    """Everything a run needs before its timed part."""
    from repro.core import TestGenConfig
    from repro.core.generator import make_fault_simulator
    from repro.harness.runner import compiled_circuit_for

    config = TestGenConfig(**spec["config"], sim_kernel=kernel)
    compiled = compiled_circuit_for(spec["circuit"], SCALE)
    fsim = make_fault_simulator(compiled, config)  # kernel build + fault list
    kernel = fsim.kernel_name
    fsim.close()
    return compiled, config, kernel


def direct_round(spec, compiled, config, state_dir: str, tag: str) -> dict:
    """Each pinned seed through ``GaTestGenerator.run`` in this process;
    each test set is saved the way ``gatest run -o`` saves it.  A seed
    whose run raises is recorded with its error."""
    from repro.atomicio import atomic_write_text
    from repro.core import GaTestGenerator

    t0 = time.perf_counter()
    seeds = []
    state_bytes = 0
    for seed in spec["seeds"]:
        s0 = time.perf_counter()
        try:
            result = GaTestGenerator(compiled, replace(config, seed=seed)).run()
        except Exception as exc:  # counted as a failed operation
            seeds.append({"seed": seed, "error": repr(exc)})
            continue
        wall = time.perf_counter() - s0
        path = os.path.join(state_dir, f"{tag}-seed{seed}.txt")
        lines = ["".join(map(str, v)) for v in result.test_sequence]
        atomic_write_text(path, "\n".join(lines) + "\n")
        state_bytes += os.path.getsize(path)
        seeds.append({"seed": seed, "wall": wall,
                      "run_s": result.elapsed_seconds,
                      "result": result_json(result)})
    return {"wall": time.perf_counter() - t0, "seeds": seeds,
            "state_bytes": state_bytes}


def pool_round(spec, config, state_dir: str, tag: str) -> dict:
    """The seeds concurrently through the seed pool (``jobs=2``) inside a
    fresh campaign journal: the ``gatest experiments --jobs 2 --journal``
    path.  A seed the pool gives up on is recorded with its error."""
    from repro.harness.campaign import CampaignJournal, campaign_scope
    from repro.harness.runner import run_matrix

    path = os.path.join(state_dir, f"{tag}-journal.jsonl")
    t0 = time.perf_counter()
    journal = CampaignJournal.create(
        path, table="6", scale=SCALE, seeds=list(spec["seeds"])
    )
    with campaign_scope(journal):
        cells = run_matrix([spec["circuit"]], {"100": config},
                           list(spec["seeds"]), scale=SCALE, jobs=2)
    wall = time.perf_counter() - t0
    agg = cells[spec["circuit"]]["100"]
    errors = {f.seed: f.error for f in agg.failed_seeds}
    runs = iter(agg.runs)  # the surviving seeds, in seed order
    seeds = []
    for seed in spec["seeds"]:
        if seed in errors:
            seeds.append({"seed": seed, "error": errors[seed]})
            continue
        r = next(runs)
        seeds.append({"seed": seed, "wall": r.elapsed_seconds,
                      "run_s": r.elapsed_seconds, "result": result_json(r)})
    return {"wall": wall, "seeds": seeds, "state_bytes": os.path.getsize(path)}


def peak_rss_kb(pool: bool) -> int:
    """High-water RSS of this process, or of it and its largest reaped
    seed worker for the pool workload."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not pool:
        return own
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def timed_rounds(run_round, seconds: float) -> list:
    """Whole rounds until another would pass ``seconds`` (at least one)."""
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(run_round(len(rounds)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall"] for r in rounds)
        if elapsed + typical > seconds:
            return rounds


def traced_pass(spec, kernel, state_dir: str) -> dict:
    """Set-up and the same seeds again, in this process, under the layer
    tracer (seed-pool workers cannot report spans, so the pool workload's
    seeds run here serially through ``run_gatest(jobs=1)``)."""
    from repro.harness import runner
    from repro.sim import codegen

    from tracer import Tracer, install_ga

    tracer = Tracer()
    install_ga(tracer)
    runner._circuit_cache.clear()
    codegen.clear_kernel_cache()
    compiled, config, _kernel = set_up(spec, kernel)
    out = {"setup": layer_dump(tracer)}
    tracer.reset()
    t0 = time.perf_counter()
    if spec["pool"]:
        runner.run_gatest(spec["circuit"], config, list(spec["seeds"]),
                          scale=SCALE, jobs=1)
    else:
        direct_round(spec, compiled, config, state_dir, "traced")
    out["wall"] = time.perf_counter() - t0
    out["run"] = layer_dump(tracer)
    return out


def layer_dump(tracer) -> dict:
    return {"total": dict(tracer.total), "self": dict(tracer.self_time),
            "calls": dict(tracer.calls), "counts": dict(tracer.counts)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--state", required=True)
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--kernel", default=None)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]

    compiled, config, kernel = set_up(spec, args.kernel)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    os.makedirs(args.state, exist_ok=True)
    if spec["pool"]:
        run_round = lambda i: pool_round(spec, config, args.state, f"r{i}")
    else:
        run_round = lambda i: direct_round(spec, compiled, config, args.state, f"r{i}")
    out = {"kernel": kernel}
    if args.trace:
        from tracer import Tracer, install_harness

        # Parent-side harness spans of the untraced round: a handful of
        # calls, so the round stays the untraced reference.
        harness = Tracer()
        install_harness(harness)
        out["rounds"] = [run_round(0)]
        out["harness"] = layer_dump(harness)
    else:
        out["rounds"] = timed_rounds(run_round, args.seconds)
        out["peak_rss_kb"] = peak_rss_kb(spec["pool"])
    if args.trace:
        out["traced"] = traced_pass(spec, args.kernel, args.state)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
