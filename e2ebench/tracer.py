"""Layer spans recorded from outside the program.

A :class:`Tracer` wraps public callables of the program (module
functions, class methods, the bound callables of a ``SimKernel``) in
timing shims.  Every shim records one span per call: its duration is
added to the layer's inclusive time, and to its parent's child time, so
each layer also gets a *self* time (inclusive minus what nested wrapped
calls covered).  Spans nest per thread.  Nothing inside the program is
changed; :func:`install_ga` / :func:`install_service` patch attributes
and the patches live only as long as the process.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict

class Tracer:
    """In-memory span aggregates: inclusive time, self time and calls."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, on_result=None) -> Callable:
        """``fn`` with a span named ``name`` around every call.

        ``on_result(tracer, args, kwargs, result)`` runs after the span
        closes, for layers that also count work (GA evaluations, slot
        frames).
        """
        tracer = self
        perf = time.perf_counter

        def shim(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                with tracer._lock:
                    tracer.total[name] += dt
                    tracer.self_time[name] += dt - frame[0]
                    tracer.calls[name] += 1
                if stack:
                    stack[-1][0] += dt
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        shim.__wrapped__ = fn
        shim.__name__ = getattr(fn, "__name__", name)
        return shim

    def reset(self) -> None:
        """Forget every aggregate (the shims stay installed)."""
        with self._lock:
            for table in (self.total, self.self_time, self.calls, self.counts):
                table.clear()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by its wrapped form."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_result))


def _wrap_kernel(tracer: Tracer, kernel) -> None:
    """Time the bound callables of one ``SimKernel``, including the fused
    group/population passes of the backends that bind them."""
    kernel.eval = tracer.wrap("sim.good_eval", kernel.eval)
    kernel.eval_injection = tracer.wrap("sim.faulty_eval", kernel.eval_injection)
    kernel.make_injection = tracer.wrap("sim.make_injection", kernel.make_injection)
    for attr in ("run_group", "run_batch"):
        if getattr(kernel, attr) is not None:
            setattr(kernel, attr, tracer.wrap("sim.fused_pass", getattr(kernel, attr)))


def install_ga(tracer: Tracer) -> None:
    """Wrap the layers one GATEST run goes through.

    ``kernel_for`` is re-bound in every module that imported it by name,
    so each ``SimKernel`` the program builds comes back with timed
    callables.
    """
    from repro.circuit import synth
    from repro.core import generator
    from repro.faults import collapse, simulator
    from repro.ga import engine
    from repro.harness import runner
    from repro.sim import codegen, compile as sim_compile, logic3

    original_kernel_for = codegen.kernel_for
    build = tracer.wrap("sim.kernel_build", original_kernel_for)

    def kernel_for(*args, **kwargs):
        kernel = build(*args, **kwargs)
        _wrap_kernel(tracer, kernel)
        return kernel

    for module in (codegen, simulator, logic3):
        module.kernel_for = kernel_for

    # Modules that imported these by name get the wrapped callable too.
    for module in (synth, runner):
        tracer.patch(module, "synthesize_named", "circuit.build")
    for module in (sim_compile, runner, generator, simulator, logic3):
        tracer.patch(module, "compile_circuit", "sim.compile")
    tracer.patch(collapse, "collapse_faults", "faults.collapse")

    def on_ga(tr, _args, _kwargs, result):
        tr.count("ga.evaluations", result.evaluations)

    tracer.patch(engine.GeneticAlgorithm, "run", "ga.run", on_ga)

    def on_batch(tr, args, kwargs, result):
        candidates = args[1]
        sample = kwargs.get("sample")
        if sample is None:
            sample = args[0].active
        frames = len(candidates[0]) if candidates else 0
        tr.count("faults.slot_frames", len(candidates) * len(sample) * frames)

    FS = simulator.FaultSimulator
    tracer.patch(FS, "evaluate_batch", "faults.evaluate_batch", on_batch)
    tracer.patch(FS, "commit", "faults.commit")
    tracer.patch(FS, "snapshot", "faults.snapshot_restore")
    tracer.patch(FS, "restore", "faults.snapshot_restore")
    tracer.patch(simulator.PatternParallelGood, "step", "faults.good_step")
    tracer.patch(logic3.PatternSimulator, "step", "core.phase1")

    G = generator.GaTestGenerator
    tracer.patch(G, "__init__", "core.generator_init")
    tracer.patch(G, "run", "core.generator")

    def evaluator_factory(attr):
        make = getattr(G, attr)

        def factory(self, *args, **kwargs):
            return tracer.wrap("core.evaluator", make(self, *args, **kwargs))

        setattr(G, attr, factory)

    evaluator_factory("_phase1_evaluator")
    evaluator_factory("_fault_evaluator")
    tracer.patch(generator, "save_run_checkpoint", "core.checkpoint_write")

    install_harness(tracer)


def install_harness(tracer: Tracer) -> None:
    """Wrap only the parent-side harness layers of a seed-pool cell (the
    seed workers are forked and would carry GA shims they cannot report)."""
    from repro.harness import campaign, runner

    tracer.patch(runner, "run_gatest", "harness.run_gatest")
    tracer.patch(campaign.CampaignJournal, "record_cell", "harness.journal_append")
    tracer.patch(campaign.CampaignJournal, "bind", "harness.journal_append")


#: Counters a tier worker returns with each run job, and the layer
#: counts they feed (the worker process itself cannot be wrapped).
TIER_COUNTERS = {
    "checkpoint.writes": "core.checkpoint_writes",
    "checkpoint.seconds": "core.checkpoint_write_s",
}


def install_service(tracer: Tracer, queue_waits: list, tier_spans: list) -> None:
    """Wrap the job service's layers inside a ``gatest serve`` process.

    ``queue_waits`` collects (kind, seconds) from a job's registration in
    the queue to the start of its execution; ``tier_spans`` collects
    (tier execute seconds, worker ``generator.run`` seconds) per run job.
    """
    from repro.service import jobs, state, tier

    install_ga(tracer)
    tracer.patch(state, "compile_circuit", "sim.compile")
    accepted: Dict[str, float] = {}
    accept = jobs.JobManager._accept

    def accept_timed(self, *args, **kwargs):
        # Runs under the manager's lock, before any worker can see the job.
        job = accept(self, *args, **kwargs)
        accepted[job.id] = time.perf_counter()
        return job

    jobs.JobManager._accept = accept_timed
    tracer.patch(jobs.JobManager, "submit", "service.submit")
    tracer.patch(jobs.JobLedger, "append", "service.ledger_append")

    def dispatch(attr: str, name: str, kind: str) -> None:
        execute = getattr(jobs.JobManager, attr)
        timed = tracer.wrap(name, execute)

        def shim(self, target):
            group = target if isinstance(target, list) else [target]
            now = time.perf_counter()
            for job in group:
                t0 = accepted.pop(job.id, None)
                if t0 is not None:
                    queue_waits.append((kind, now - t0))
            return timed(self, target)

        setattr(jobs.JobManager, attr, shim)

    dispatch("_execute_fsim_group", "service.exec_fsim", "fsim")
    dispatch("_execute_run", "service.exec_run", "run")

    timed_execute = tracer.wrap("service.tier_execute", tier.ProcessTier.execute)

    def execute(self, task, policy):
        t0 = time.perf_counter()
        result = timed_execute(self, task, policy)
        elapsed = time.perf_counter() - t0
        worker = 0.0
        for record in result[2]:
            if record.get("kind") == "span" and record.get("name") == "generator.run":
                worker += record["dur"]
            elif record.get("kind") == "counter" and record.get("name") in TIER_COUNTERS:
                tracer.count(TIER_COUNTERS[record["name"]], record["value"])
        tier_spans.append((elapsed, worker))
        return result

    tier.ProcessTier.execute = execute
