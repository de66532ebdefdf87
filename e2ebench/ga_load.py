"""Parent side of the GA workloads (``gatest-s526``, ``table6-s1423-pool``).

Spawns ``ga_worker.py`` ``SETUP_SAMPLES - 1`` times for set-up only and
once for the workload, then checks the worker's outputs in separate
processes: the reference simulator on a seeded subset of faults, an
interpreter-kernel replay of every final test set, and the result
properties (see ``refsim.py``).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import HERE, ROOT, layer_metrics, run_checks

#: Spawns of the workload process whose set-up time is sampled.
SETUP_SAMPLES = 5
#: Faults per GA seed checked against the reference simulator.
REF_FAULTS = 16
#: Seconds the workload process may take before the run is abandoned.
CHILD_TIMEOUT = 150.0
#: Spans that keep the time no named layer below them covers.
ROOT_SPANS = ("core.generator", "harness.run_gatest")
#: Share of the traced run time the named layers may leave unexplained.
ACCOUNTED_SLACK = 0.05


def spawn_until_ready(cmd: List[str], env: Dict[str, str], log) -> tuple:
    """Start ``cmd``; return (process, seconds from spawn to its READY
    line).  Both clocks are CLOCK_MONOTONIC, which processes share."""
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, env=env,
                            cwd=str(ROOT), text=True)
    line = proc.stdout.readline()
    if not line.startswith("READY "):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"ga_worker did not get ready (see {log.name})")
    return proc, float(line.split()[1]) - t0


def finish(proc: subprocess.Popen) -> None:
    try:
        proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"ga_worker exited with status {proc.returncode}")


def run_ga(workload: str, seed: int, seconds: float, trace: bool,
           state: Path, env: Dict[str, str], kernel: Optional[str] = None) -> dict:
    from ga_worker import SCALE, WORKLOADS

    spec = WORKLOADS[workload]
    cmd = [sys.executable, str(HERE / "ga_worker.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--state", str(state / "work")]
    if kernel is not None:
        cmd += ["--kernel", kernel]
    out_path = state / "worker.json"
    setups = []
    t_start = time.monotonic()
    with open(state / "worker.log", "w") as log:
        for _ in range(0 if trace else SETUP_SAMPLES - 1):
            proc, setup = spawn_until_ready(cmd + ["--setup-only"], env, log)
            finish(proc)
            setups.append(setup)
        proc, setup = spawn_until_ready(cmd + ["--out", str(out_path)], env, log)
        finish(proc)
        setups.append(setup)
    t_worker = time.monotonic()
    data = json.loads(out_path.read_text())
    rounds = data["rounds"]
    runs = [s for r in rounds for s in r["seeds"]]
    done = [s for s in runs if "error" not in s]
    first = {s["seed"]: s["result"] for s in rounds[0]["seeds"] if "result" in s}

    errors = []
    for s in done:
        if s["seed"] in first and s["result"] != first[s["seed"]]:
            errors.append(f"GA seed {s['seed']}: a later round's result "
                          "differs from the first's")
    errors.extend(run_checks([
        ("ga", [spec["circuit"], SCALE, result, seed * 1000 + ga_seed,
                REF_FAULTS, spec["config"].get("max_vectors")])
        for ga_seed, result in first.items()
    ], state))
    t_checks = time.monotonic()

    walls = [r["wall"] for r in rounds]
    info = {"kernel": data["kernel"], "rounds": len(rounds),
            "setup_samples": len(setups), "setup_first_s": setups[0],
            "run_job_samples": len(done),
            "bench_s": {"workload": t_worker - t_start,
                        "checks": t_checks - t_worker}}
    if trace:
        metrics = ga_layers(data, spec["pool"])
        if metrics["trace.accounted_share"] < 1.0 - ACCOUNTED_SLACK:
            errors.append(
                f"the named layers explain only "
                f"{metrics['trace.accounted_share']:.3f} of the traced run "
                f"time (at least {1.0 - ACCOUNTED_SLACK} required)")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(walls),
            "peak_rss_mb": data["peak_rss_kb"] / 1024.0,
            "faults_detected": sum(r["detected"] for r in first.values()),
            "test_vectors": sum(len(r["test_sequence"]) for r in first.values()),
            "state_disk_kb": rounds[0]["state_bytes"] / 1024.0,
        }
    return {"errors": errors, "attempted": len(runs),
            "failed": len(runs) - len(done), "metrics": metrics, "info": info}


def ga_layers(data: dict, pool: bool) -> dict:
    """Per-layer metrics of one traced GA pass (README: "Per-layer")."""
    traced = data["traced"]
    run = traced["run"]
    metrics = layer_metrics(traced["setup"], run)
    untraced = data["rounds"][0]
    done = [s for s in untraced["seeds"] if "error" not in s]
    metrics["run_job_p50_ms"] = (
        1000.0 * statistics.median(s["run_s"] for s in done) if done else 0.0)
    if pool:
        # The traced seeds ran in-process; compare their generator time
        # with the same seeds' untraced generator time in the pool.
        traced_run = run["total"]["core.generator"]
        untraced_run = sum(s["run_s"] for s in done)
        metrics["harness.pool_overhead_s"] = (
            untraced["wall"] - max((s["run_s"] for s in done), default=0.0)
        )
        measured = run["total"]["harness.run_gatest"]
    else:
        traced_run = measured = traced["wall"]
        untraced_run = untraced["wall"]
    # The outermost spans (the generator, and the harness call around it
    # on the pool) keep whatever no named layer below them covers, and
    # time outside every span (writing test sets) is covered by none: the
    # rest is what the named layers explain.
    own = run["self"]
    unexplained = sum(own.get(root, 0.0) for root in ROOT_SPANS)
    metrics["trace.accounted_share"] = (sum(own.values()) - unexplained) / measured
    harness = data["harness"]
    metrics["harness.journal_append_s"] = float(
        harness["total"].get("harness.journal_append", 0.0))
    metrics["harness.journal_appends"] = float(
        harness["calls"].get("harness.journal_append", 0))
    metrics["trace.overhead_s"] = traced_run - untraced_run
    return metrics
