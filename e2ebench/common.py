"""Paths, environment, metric names and helpers shared by the workloads."""

from __future__ import annotations

import ctypes
import glob
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "e2ebench"

#: End-to-end metrics and their units: the ones every workload has.
END_TO_END = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
    "faults_detected": "count", "test_vectors": "count",
    "state_disk_kb": "KB",
}

#: Per-layer metrics and their units.  Every traced run reports all of
#: them; a layer that the workload does not go through reads 0.  The
#: first four are a user's throughput and latency figures, printed here
#: without a bound (README, "End-to-end metrics", says why).
PER_LAYER = {
    "jobs_per_s": "jobs/s", "fsim_p50_ms": "ms", "fsim_tail_ms": "ms",
    "run_job_p50_ms": "ms",
    "circuit.build_s": "s", "sim.compile_s": "s", "sim.kernel_build_s": "s",
    "faults.collapse_s": "s",
    "sim.good_eval_s": "s", "sim.good_eval_calls": "count",
    "sim.faulty_eval_s": "s", "sim.faulty_eval_calls": "count",
    "sim.make_injection_s": "s", "sim.fused_pass_s": "s",
    "sim.kernel_lookup_s": "s",
    "faults.evaluate_batch_s": "s", "faults.evaluate_batch_calls": "count",
    "faults.good_step_s": "s", "faults.batch_self_s": "s",
    "faults.slot_frames": "count", "faults.ns_per_slot_frame": "ns",
    "faults.commit_s": "s", "faults.commit_calls": "count",
    "faults.snapshot_restore_s": "s",
    "ga.run_s": "s", "ga.runs": "count", "ga.evaluations": "count",
    "ga.self_s": "s",
    "core.phase1_s": "s", "core.evaluator_self_s": "s",
    "core.generator_init_s": "s", "core.generator_self_s": "s",
    "core.checkpoint_write_s": "s", "core.checkpoint_writes": "count",
    "harness.pool_overhead_s": "s", "harness.journal_append_s": "s",
    "harness.journal_appends": "count",
    "service.submit_ms": "ms", "service.ledger_append_ms": "ms",
    "service.ledger_appends": "count", "service.queue_wait_ms": "ms",
    "service.exec_fsim_ms": "ms", "service.tier_execute_ms": "ms",
    "service.tier_overhead_ms": "ms", "service.cache_hits": "count",
    "service.cache_misses": "count", "service.batch_jobs_per_pass": "jobs",
    "service.rss_kb_per_job": "KB", "service.disk_bytes_per_job": "bytes",
    "trace.overhead_s": "s", "trace.accounted_share": "ratio",
}


def hermetic_env() -> Dict[str, str]:
    """The environment of every process the benchmark starts: no
    ``REPRO_*`` setting leaks in, and the compiled-kernel cache lives in
    the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CKERNEL_CACHE"] = str(BUILD / "ckernel")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds descendants get to end by themselves once the work is done.
REAP_GRACE = 10.0


def adopt_orphans() -> None:
    """Make this process the child subreaper of everything it starts
    (Linux only; elsewhere a no-op).

    ``gatest serve`` leaves its forkserver and resource-tracker processes
    behind as orphans when it exits; as a subreaper this process inherits
    them, so :func:`reap_all` can wait for them."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    pids: List[int] = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path) as handle:
            pids.extend(int(p) for p in handle.read().split())
    return pids


def reap_all() -> None:
    """Wait until every child, adopted orphans included, has ended;
    whatever is still running ``REAP_GRACE`` seconds after the work is
    killed first."""
    deadline = time.monotonic() + REAP_GRACE
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


#: Processes that run the independent checks side by side.
CHECK_PROCS = 2
#: Seconds the checks may take before the run is abandoned.
CHECK_TIMEOUT = 120.0


def run_checks(tasks: Sequence[Tuple[str, list]], workdir: Path) -> List[str]:
    """Run ``refsim.py`` checks (``(name, args)`` pairs, see
    ``refsim.CHECKS``) in ``CHECK_PROCS`` plain child processes after the
    timed part, so they never compete with it; returns the failures.
    Each process reads its share of the tasks from a file in ``workdir``.

    Plain processes rather than a ``multiprocessing`` pool: a pool also
    starts a resource-tracker process that outlives the benchmark.  Every
    child is waited for on every path out.
    """
    procs = []
    try:
        for i in range(CHECK_PROCS):
            batch = list(tasks[i::CHECK_PROCS])
            if not batch:
                continue
            path = workdir / f"checks{i}.json"
            path.write_text(json.dumps(batch), encoding="utf-8")
            procs.append(subprocess.Popen(
                [sys.executable, str(HERE / "refsim.py"), str(path)],
                stdout=subprocess.PIPE, cwd=str(ROOT), text=True))
        outputs = [proc.communicate(timeout=CHECK_TIMEOUT)[0] for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    errors = []
    for proc, out in zip(procs, outputs):
        if proc.returncode != 0:
            raise RuntimeError(f"check process exited with status {proc.returncode}")
        errors.extend(json.loads(out))
    return errors


def layer_metrics(setup: dict, run: dict) -> Dict[str, float]:
    """Per-layer metrics from two tracer dumps: set-up and timed part."""
    tot, own = run["total"], run["self"]
    calls, counts = run["calls"], run["counts"]

    def get(table, key):
        return float(table.get(key, 0.0))

    slot_frames = get(counts, "faults.slot_frames")
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "circuit.build_s": get(setup["total"], "circuit.build"),
        "sim.compile_s": get(setup["total"], "sim.compile"),
        "sim.kernel_build_s": get(setup["total"], "sim.kernel_build"),
        "faults.collapse_s": get(setup["total"], "faults.collapse"),
        "sim.good_eval_s": get(tot, "sim.good_eval"),
        "sim.good_eval_calls": get(calls, "sim.good_eval"),
        "sim.faulty_eval_s": get(tot, "sim.faulty_eval"),
        "sim.faulty_eval_calls": get(calls, "sim.faulty_eval"),
        "sim.make_injection_s": get(tot, "sim.make_injection"),
        "sim.fused_pass_s": get(tot, "sim.fused_pass"),
        "sim.kernel_lookup_s": get(tot, "sim.kernel_build"),
        "faults.evaluate_batch_s": get(tot, "faults.evaluate_batch"),
        "faults.evaluate_batch_calls": get(calls, "faults.evaluate_batch"),
        "faults.good_step_s": get(tot, "faults.good_step"),
        "faults.batch_self_s": get(own, "faults.evaluate_batch"),
        "faults.slot_frames": slot_frames,
        "faults.ns_per_slot_frame": (
            1e9 * get(tot, "faults.evaluate_batch") / slot_frames
            if slot_frames else 0.0
        ),
        "faults.commit_s": get(tot, "faults.commit"),
        "faults.commit_calls": get(calls, "faults.commit"),
        "faults.snapshot_restore_s": get(tot, "faults.snapshot_restore"),
        "ga.run_s": get(tot, "ga.run"),
        "ga.runs": get(calls, "ga.run"),
        "ga.evaluations": get(counts, "ga.evaluations"),
        "ga.self_s": get(own, "ga.run"),
        "core.phase1_s": get(tot, "core.phase1"),
        "core.evaluator_self_s": get(own, "core.evaluator"),
        "core.generator_init_s": get(tot, "core.generator_init"),
        "core.generator_self_s": get(own, "core.generator"),
        "core.checkpoint_write_s": get(tot, "core.checkpoint_write"),
        "core.checkpoint_writes": get(calls, "core.checkpoint_write"),
    })
    return metrics
