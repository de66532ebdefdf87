"""The ``service-mixed`` workload: ``gatest serve`` under a closed loop.

One service process with one scheduling worker; two client threads each
submit a job, wait for it to finish on its ``/jobs/<id>/events`` stream
(which closes when the job does), fetch the result and move on.  Jobs
come in rounds of 50: 49 distinct 16-frame ``fsim`` jobs alternating
s298 and s526, with vectors drawn from the workload seed, and one ``run``
job on s27 whose GA seed is the round number.  Rounds start until
``--seconds`` have passed (at least ``MIN_ROUNDS``); every started round
is finished.  After ``MIN_ROUNDS`` rounds the clients drain once and the
service's on-disk state and high-water RSS are measured, so those
figures always cover the same jobs.
"""

from __future__ import annotations

import glob
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import HERE, ROOT, layer_metrics, percentile, run_checks

ROUND = 50
MIN_ROUNDS = 21
FRAMES = 16
FSIM_CIRCUITS = ("s298", "s526")
CLIENTS = 2
#: Service starts per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 4
#: Seeded subsets re-checked in the benchmark's own processes.
FSIM_CHECKS = 12
RUN_CHECKS = 3
#: GA seed of the warm-up run job (the load's run jobs use 1, 2, ...).
WARMUP_SEED = 0
#: Share of the rounds, those with the least host CPU steal, that the
#: timing metrics come from (steal from /proc/stat; on a shared VM it
#: stretched rounds by up to 70 %).
QUIET_SHARE = 0.5
#: Percentile reported as ``fsim_tail_ms``: the quiet rounds hold at
#: least 11 x 49 fsim samples, so p90 has over 50 beyond it.
TAIL_PERCENTILE = 90

#: Clock ticks per second of the CPU times in ``/proc/<pid>/stat``.
CLK_TCK = os.sysconf("SC_CLK_TCK")

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


def fsim_vectors(rng: random.Random, n_pis: int) -> List[List[int]]:
    return [[rng.getrandbits(1) for _ in range(n_pis)] for _ in range(FRAMES)]


def job_spec(seed: int, index: int, n_pis: Dict[str, int]) -> dict:
    """The ``index``-th job of the load (a pure function of the seed)."""
    round_no, pos = divmod(index, ROUND)
    if pos == ROUND - 1:
        return {"kind": "run", "circuit": "s27",
                "config": {"seed": round_no + 1}}
    circuit = FSIM_CIRCUITS[pos % len(FSIM_CIRCUITS)]
    rng = random.Random(f"{seed}:{index}")
    return {"kind": "fsim", "circuit": circuit,
            "vectors": fsim_vectors(rng, n_pis[circuit])}


def cpu_ticks() -> tuple:
    """(steal, total) jiffies of the whole host, from /proc/stat."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return fields[7], sum(fields)


def quiet_rounds(marks: List[tuple]) -> List[int]:
    """The ``QUIET_SHARE`` of the rounds with the least host CPU steal;
    ``marks`` holds (time, steal, total, service CPU) at every round
    boundary."""
    shares = []
    for r, ((_t0, s0, n0, _c0), (_t1, s1, n1, _c1)) in enumerate(zip(marks, marks[1:])):
        shares.append(((s1 - s0) / max(1, n1 - n0), r))
    shares.sort()
    keep = max(1, round(len(shares) * QUIET_SHARE))
    return sorted(r for _share, r in shares[:keep])


def quiet_wall(load: dict) -> float:
    """Median wall time of the quiet rounds of one load."""
    return statistics.median(load["round_walls"][r] for r in load["quiet"])


def quiet_cpu(load: dict) -> float:
    """Mean service CPU time of the quiet rounds of one load."""
    return statistics.fmean(load["round_cpu"][r] for r in load["quiet"])


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Server:
    """One ``gatest serve`` process (optionally with the layer shims)."""

    def __init__(self, state: Path, env: dict, dump: Optional[Path] = None):
        from repro.service.client import ServiceClient

        self.state = state
        serve = ["--port", "0", "--state-dir", str(state / "service"),
                 "--workers", "1"]
        if dump is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve"] + serve
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"),
                   "--dump", str(dump), "--"] + serve
        state.mkdir(parents=True, exist_ok=True)
        self.log = open(state / "serve.log", "w")
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, stdout=self.log, stderr=subprocess.STDOUT, env=env,
            cwd=str(ROOT), start_new_session=True,
        )
        deadline = self.t0 + 60.0
        while True:
            match = _LISTENING.search((state / "serve.log").read_text())
            if match:
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"service did not start (see {self.log.name})")
            time.sleep(0.002)
        self.client = ServiceClient(match.group(1), int(match.group(2)),
                                    timeout=120.0)

    def call(self, spec: dict) -> tuple:
        """Submit, wait for the job's event stream to end, fetch the
        result; returns (seconds from submit to stream end, job record)."""
        t0 = time.perf_counter()
        job = self.client.submit(spec)
        for _record in self.client.events(job["id"]):
            pass
        latency = time.perf_counter() - t0
        return latency, self.client.job(job["id"])

    def warm_up(self, n_pis: Dict[str, int]) -> float:
        """One cold fsim per circuit and one run job; returns the seconds
        from process spawn until the service is warm."""
        rng = random.Random("warm-up")
        for circuit in FSIM_CIRCUITS:
            self.call({"kind": "fsim", "circuit": circuit,
                       "vectors": fsim_vectors(rng, n_pis[circuit])})
        self.call({"kind": "run", "circuit": "s27",
                   "config": {"seed": WARMUP_SEED}})
        return time.monotonic() - self.t0

    def cpu_seconds(self) -> float:
        """CPU time (user + system, reaped children included) of the
        service's process group: the server, its forkserver and the
        process-tier workers."""
        ticks = 0
        for path in glob.glob("/proc/[0-9]*/stat"):
            try:
                with open(path) as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:  # the process ended meanwhile
                continue
            if int(fields[2]) == self.proc.pid:  # pgrp
                ticks += sum(int(v) for v in fields[11:15])
        return ticks / CLK_TCK

    def memory_kb(self) -> Dict[str, int]:
        """VmHWM / VmRSS of the service process, in kB."""
        out = {}
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key in ("VmHWM", "VmRSS"):
                    out[key] = int(value.split()[0])
        return out

    def counters(self) -> dict:
        return self.client.healthz()["counters"]

    def stop(self) -> None:
        """Graceful shutdown; the process group is killed if it lingers."""
        try:
            if self.proc.poll() is None:
                try:
                    self.client.shutdown()
                except (AttributeError, OSError):
                    self.proc.terminate()
                self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            pass
        finally:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
            self.log.close()


class Load:
    """The closed loop: ``CLIENTS`` threads pulling jobs in order."""

    def __init__(self, server: Server, seed: int, seconds: float,
                 n_pis: Dict[str, int]) -> None:
        self.server = server
        self.seed = seed
        self.seconds = seconds
        self.n_pis = n_pis
        self.cond = threading.Condition()
        self.next = 0
        self.done = 0
        self.stopped = False
        self.state_bytes: Optional[int] = None
        self.peak_rss_kb: Optional[int] = None
        self.results: Dict[int, tuple] = {}
        # (time, steal, total, service CPU) at every round start
        self.marks: List[tuple] = []

    def _take(self) -> Optional[int]:
        with self.cond:
            while True:
                index = self.next
                if self.stopped:
                    return None
                if index == MIN_ROUNDS * ROUND and self.state_bytes is None:
                    self.cond.wait_for(lambda: self.done == index)
                    if self.state_bytes is None:
                        self.state_bytes = dir_bytes(self.server.state / "service")
                        self.peak_rss_kb = self.server.memory_kb()["VmHWM"]
                    continue
                if (index % ROUND == 0 and index >= MIN_ROUNDS * ROUND
                        and time.perf_counter() - self.start >= self.seconds):
                    self.stopped = True
                    return None
                if index % ROUND == 0:
                    self.marks.append(self._mark())
                self.next += 1
                return index

    def _mark(self) -> tuple:
        return ((time.perf_counter(),) + cpu_ticks()
                + (self.server.cpu_seconds(),))

    def _client(self) -> None:
        while True:
            index = self._take()
            if index is None:
                return
            spec = job_spec(self.seed, index, self.n_pis)
            try:
                latency, record = self.server.call(spec)
            except Exception as exc:  # counted as a failed job
                latency, record = None, {"status": "error", "error": repr(exc)}
            with self.cond:
                self.results[index] = (spec, latency, record)
                self.done += 1
                self.cond.notify_all()

    def run(self) -> None:
        self.start = time.perf_counter()
        threads = [threading.Thread(target=self._client, name=f"client-{i}")
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.marks.append(self._mark())


def circuit_pis() -> Dict[str, int]:
    from repro.circuit.library import resolve_spec

    return {name: len(resolve_spec(name).inputs) for name in FSIM_CIRCUITS}


def one_load(seed, seconds, state: Path, env, n_pis, dump=None) -> dict:
    """Start a service, warm it, drive the load, stop it."""
    server = Server(state, env, dump)
    try:
        setup = server.warm_up(n_pis)
        before, mem0 = server.counters(), server.memory_kb()
        disk0 = dir_bytes(state / "service")
        load = Load(server, seed, seconds, n_pis)
        load.run()
        after, mem1 = server.counters(), server.memory_kb()
        disk1 = dir_bytes(state / "service")
    finally:
        server.stop()
    jobs = len(load.results)
    delta = lambda key: after.get(key, 0) - before.get(key, 0)
    return {
        "setup": setup, "results": load.results,
        "quiet": quiet_rounds(load.marks),
        "steal_share": ((load.marks[-1][1] - load.marks[0][1])
                        / max(1, load.marks[-1][2] - load.marks[0][2])),
        "round_walls": [b[0] - a[0] for a, b in zip(load.marks, load.marks[1:])],
        "round_cpu": [b[3] - a[3] for a, b in zip(load.marks, load.marks[1:])],
        "state_bytes": load.state_bytes, "peak_rss_kb": load.peak_rss_kb,
        "rss_kb_per_job": (mem1["VmRSS"] - mem0["VmRSS"]) / jobs,
        "disk_bytes_per_job": (disk1 - disk0) / jobs,
        "cache_hits": delta("service.cache.hits"),
        "cache_misses": delta("service.cache.misses"),
        "batch_passes": delta("service.batch.passes"),
        "batch_jobs": delta("service.batch.jobs"),
    }


def check(seed: int, results: Dict[int, tuple], workdir: Path) -> List[str]:
    """Field checks on every job, recomputation on seeded subsets."""
    errors = []
    fsim_done, run_done = [], []
    for index, (spec, _latency, record) in sorted(results.items()):
        if record["status"] != "done":
            continue
        result = record["result"]
        if spec["kind"] == "fsim":
            if (result["vectors"] != FRAMES
                    or not 0 <= result["detected"] <= result["total_faults"]):
                errors.append(f"fsim job {index}: malformed result {result}")
            fsim_done.append(index)
        else:
            run_done.append(index)
    rng = random.Random(f"checks:{seed}")
    picks_f = rng.sample(fsim_done, min(FSIM_CHECKS, len(fsim_done)))
    picks_r = rng.sample(run_done, min(RUN_CHECKS, len(run_done)))
    errors.extend(run_checks([
        ("fsim", [results[i][0]["circuit"], results[i][0]["vectors"],
                  results[i][2]["result"]["detected"]])
        for i in picks_f
    ] + [
        ("run", [results[i][0]["config"]["seed"], results[i][2]["result"]])
        for i in picks_r
    ], workdir))
    return errors


def run_service(seed: int, seconds: float, trace: bool, state: Path,
                env: dict) -> dict:
    from repro.sim.codegen import resolve_kernel_name

    n_pis = circuit_pis()
    setups = []
    for i in range(SETUP_SAMPLES - 1 if not trace else 0):
        server = Server(state / f"setup{i}", env)
        try:
            setups.append(server.warm_up(n_pis))
        finally:
            server.stop()
    load = one_load(seed, seconds, state / "load", env, n_pis)
    setups.append(load["setup"])
    results = load["results"]
    errors = check(seed, results, state)
    failed = sum(1 for _s, _l, r in results.values() if r["status"] != "done")
    rounds = len(results) // ROUND
    info = {"kernel": resolve_kernel_name(), "rounds": rounds,
            "setup_samples": len(setups)}
    quiet = set(load["quiet"])
    ok = {i: (s, l, r) for i, (s, l, r) in results.items()
          if r["status"] == "done"}
    timed = [v for i, v in ok.items() if i // ROUND in quiet]
    first = [v for i, v in ok.items() if i < MIN_ROUNDS * ROUND]
    fsim_ms = [1000.0 * l for s, l, _r in timed if s["kind"] == "fsim"]
    # Run jobs differ in GA work by seed, so their latency is taken over
    # the same seeds (1..MIN_ROUNDS) in every run.
    run_ms = [1000.0 * l for s, l, _r in first if s["kind"] == "run"]
    latency = {
        "jobs_per_s": len(ok) / len(results) * ROUND / quiet_wall(load),
        "fsim_p50_ms": statistics.median(fsim_ms),
        "fsim_tail_ms": percentile(fsim_ms, TAIL_PERCENTILE),
        "run_job_p50_ms": statistics.median(run_ms),
    }
    info.update(fsim_samples=len(fsim_ms), run_job_samples=len(run_ms),
                tail_percentile=TAIL_PERCENTILE, quiet_rounds=len(quiet),
                steal_share=load["steal_share"])
    if trace:
        dump_path = state / "layers.json"
        traced = one_load(seed, seconds, state / "traced", env, n_pis, dump_path)
        errors += check(seed, traced["results"], state)
        metrics = service_layers(load, traced, json.loads(dump_path.read_text()))
        metrics.update(latency)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": quiet_cpu(load),
            "peak_rss_mb": load["peak_rss_kb"] / 1024.0,
            "faults_detected": sum(r["result"]["detected"]
                                   for s, _l, r in first if s["kind"] == "fsim"),
            "test_vectors": sum(len(r["result"]["test_sequence"])
                                for s, _l, r in first if s["kind"] == "run"),
            "state_disk_kb": load["state_bytes"] / 1024.0,
        }
    return {"errors": errors, "attempted": len(results), "failed": failed,
            "metrics": metrics, "info": info}


def service_layers(load: dict, traced: dict, dump: dict) -> dict:
    """Per-layer metrics of the service (see README for each)."""
    tot, calls = dump["total"], dump["calls"]
    mean_ms = lambda key: (1000.0 * tot.get(key, 0.0) / calls[key]
                           if calls.get(key) else 0.0)
    fsim_waits = [w for kind, w in dump["queue_waits"] if kind == "fsim"]
    tier = dump["tier_spans"]
    fsim_jobs = sum(1 for s, _l, _r in load["results"].values()
                    if s["kind"] == "fsim")
    passes = load["batch_passes"] + fsim_jobs - load["batch_jobs"]
    metrics = layer_metrics(dump, dump)
    counts = dump["counts"]
    metrics.update({
        "core.checkpoint_write_s": counts.get("core.checkpoint_write_s", 0.0),
        "core.checkpoint_writes": counts.get("core.checkpoint_writes", 0.0),
        "trace.overhead_s": quiet_wall(traced) - quiet_wall(load),
        "service.submit_ms": mean_ms("service.submit"),
        "service.ledger_append_ms": mean_ms("service.ledger_append"),
        "service.ledger_appends": float(calls.get("service.ledger_append", 0)),
        "service.queue_wait_ms": (1000.0 * statistics.median(fsim_waits)
                                  if fsim_waits else 0.0),
        "service.exec_fsim_ms": mean_ms("service.exec_fsim"),
        "service.tier_execute_ms": (1000.0 * statistics.median(t for t, _w in tier)
                                    if tier else 0.0),
        "service.tier_overhead_ms": (1000.0 * statistics.median(t - w for t, w in tier)
                                     if tier else 0.0),
        "service.cache_hits": float(load["cache_hits"]),
        "service.cache_misses": float(load["cache_misses"]),
        "service.batch_jobs_per_pass": fsim_jobs / passes if passes else 0.0,
        "service.rss_kb_per_job": load["rss_kb_per_job"],
        "service.disk_bytes_per_job": load["disk_bytes_per_job"],
    })
    return metrics
