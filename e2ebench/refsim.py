"""Independent checks of GATEST outputs.

:class:`RefSim` is a scalar, fault-at-a-time sequential simulator with
its own three-valued gate tables and its own topological order.  It
reads only the netlist's data (node types, fanins, inputs, outputs,
flip-flops) and a fault's ``(node, pin, stuck_at)`` triple; it shares no
simulation code with the program.  The semantics it implements are the
ones GATEST reports against: every flip-flop starts unknown (X), and a
fault is detected at the first frame where some primary output is
definite in the good machine and definite and different in the faulty
one.

The other checks replay a final test set on a fresh program simulator
and test properties every GATEST result must have.
"""

from __future__ import annotations

import json
import random
import sys
from typing import Dict, List, Optional, Sequence, Tuple

X = 2  # the unknown value; 0 and 1 are themselves

STEM = -1  # a fault on a node's output rather than on one of its pins


def _and(values: Sequence[int]) -> int:
    out = 1
    for v in values:
        if v == 0:
            return 0
        if v == X:
            out = X
    return out


def _or(values: Sequence[int]) -> int:
    out = 0
    for v in values:
        if v == 1:
            return 1
        if v == X:
            out = X
    return out


def _xor(values: Sequence[int]) -> int:
    out = 0
    for v in values:
        if v == X:
            return X
        out ^= v
    return out


def _not(v: int) -> int:
    return X if v == X else 1 - v


GATES = {
    "and": _and,
    "nand": lambda vs: _not(_and(vs)),
    "or": _or,
    "nor": lambda vs: _not(_or(vs)),
    "xor": _xor,
    "xnor": lambda vs: _not(_xor(vs)),
    "not": lambda vs: _not(vs[0]),
    "buff": lambda vs: vs[0],
}

Fault = Tuple[int, int, int]  # (node, pin or STEM, stuck-at value)


class RefSim:
    """Scalar three-valued simulation of one netlist, one machine at a time."""

    def __init__(self, circuit) -> None:
        self.types = [t.value for t in circuit.node_types]
        self.fanins = [tuple(f) for f in circuit.fanins]
        self.inputs = list(circuit.inputs)
        self.outputs = list(circuit.outputs)
        self.dffs = list(circuit.dffs)
        self.order = self._topological_order()

    def _topological_order(self) -> List[int]:
        """Combinational nodes, each after all of its fanins."""
        n = len(self.types)
        sources = {i for i in range(n) if self.types[i] in ("input", "dff")}
        pending = {
            i: sum(1 for f in self.fanins[i] if f not in sources)
            for i in range(n) if i not in sources
        }
        users: Dict[int, List[int]] = {}
        for node in pending:
            for f in self.fanins[node]:
                if f not in sources:
                    users.setdefault(f, []).append(node)
        ready = sorted(node for node, count in pending.items() if count == 0)
        order: List[int] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for user in users.get(node, ()):
                pending[user] -= 1
                if pending[user] == 0:
                    ready.append(user)
        if len(order) != len(pending):
            raise ValueError("netlist has a combinational loop")
        return order

    def frame(self, vector: Sequence[int], state: List[int],
              fault: Optional[Fault] = None) -> Tuple[List[int], List[int]]:
        """One clock: returns (primary output values, next state)."""
        fnode, fpin, fval = fault if fault is not None else (-1, STEM, 0)
        val = [X] * len(self.types)
        for j, pi in enumerate(self.inputs):
            val[pi] = vector[j]
        for k, ff in enumerate(self.dffs):
            val[ff] = state[k]
        if fpin == STEM and fnode >= 0 and self.types[fnode] in ("input", "dff"):
            val[fnode] = fval
        types, fanins = self.types, self.fanins
        for node in self.order:
            ins = [val[f] for f in fanins[node]]
            if node == fnode:
                if fpin == STEM:
                    val[node] = fval
                    continue
                ins[fpin] = fval
            val[node] = GATES[types[node]](ins)
        nxt = []
        for ff in self.dffs:
            d = val[fanins[ff][0]]
            if ff == fnode and fpin == 0:
                d = fval
            nxt.append(d)
        return [val[po] for po in self.outputs], nxt

    def good_outputs(self, vectors: Sequence[Sequence[int]]) -> List[List[int]]:
        state = [X] * len(self.dffs)
        outs = []
        for vector in vectors:
            po, state = self.frame(vector, state)
            outs.append(po)
        return outs

    def first_detection(self, vectors: Sequence[Sequence[int]], fault: Fault,
                        good: List[List[int]]) -> Optional[int]:
        """Frame index at which ``fault`` is first detected, or None."""
        state = [X] * len(self.dffs)
        for t, vector in enumerate(vectors):
            po, state = self.frame(vector, state, fault)
            for g, f in zip(good[t], po):
                if g != X and f != X and g != f:
                    return t
        return None


def check_properties(result: dict, num_pis: int,
                     max_vectors: Optional[int] = None) -> List[str]:
    """Properties every GATEST result has, whatever the circuit and seed."""
    errors = []
    seq = result["test_sequence"]
    for i, vector in enumerate(seq):
        if len(vector) != num_pis or any(b not in (0, 1) for b in vector):
            errors.append(f"vector {i} is not {num_pis} bits of 0/1")
            break
    committed = [e for e in result["trace"] if e["committed"]]
    if sum(e["detected"] for e in committed) != result["detected"]:
        errors.append("per-stage detections do not sum to the total")
    if sum(e["frames"] for e in committed) != len(seq):
        errors.append("committed stage frames do not sum to the test length")
    coverage = 0
    for e in result["trace"]:
        if e["detected"] < 0 or (not e["committed"] and e["detected"]):
            errors.append("coverage falls along the stage trace")
            break
        coverage += e["detected"]
    if coverage != result["detected"]:
        errors.append("stage trace coverage does not end at the total")
    if len(result["detections"]) != result["detected"]:
        errors.append("detection list length differs from the total")
    if max_vectors is not None and len(seq) > max_vectors:
        errors.append(f"test set longer than max_vectors={max_vectors}")
    return errors


def check_ga_result(circuit_name: str, scale: float, result: dict,
                    subset_seed: int, subset_size: int,
                    max_vectors: Optional[int] = None) -> List[str]:
    """Every check of one GA seed's result; returns the failures found.

    Runs in a worker process: rebuilds the circuit, replays the final
    test set on a fresh interpreter-kernel simulator, and compares the
    reference simulator with the reported detections on a seeded subset
    of the fault list.
    """
    from repro.circuit.library import resolve_spec
    from repro.faults import FaultSimulator

    circuit = resolve_spec(circuit_name, scale=scale)
    errors = check_properties(result, len(circuit.inputs), max_vectors)
    seq = result["test_sequence"]
    fsim = FaultSimulator(circuit, kernel="interp")
    if fsim.num_faults != result["total_faults"]:
        errors.append("fault list size differs from the reported total")
    replay = fsim.run_test_set(seq).detected_count if seq else 0
    if replay != result["detected"]:
        errors.append(
            f"interp replay detects {replay}, run reported {result['detected']}"
        )
    reported = {tuple(d[:3]): d[3] for d in result["detections"]}
    ref = RefSim(circuit)
    good = ref.good_outputs(seq)
    rng = random.Random(subset_seed)
    faults = [(f.node, f.pin, f.stuck_at) for f in fsim.faults]
    for fault in rng.sample(faults, min(subset_size, len(faults))):
        want = ref.first_detection(seq, fault, good)
        got = reported.get(fault)
        if want != got:
            errors.append(
                f"fault {fault}: reference detects at frame {want}, "
                f"run reported {got}"
            )
    fsim.close()
    return errors


def check_fsim_job(circuit_name: str, vectors: List[List[int]],
                   detected: int) -> List[str]:
    """Recount one service fsim job on a fresh interpreter simulator."""
    from repro.circuit.library import resolve_spec
    from repro.faults import FaultSimulator

    fsim = FaultSimulator(resolve_spec(circuit_name), kernel="interp")
    want = fsim.evaluate(vectors).detected
    fsim.close()
    if want != detected:
        return [f"fsim job on {circuit_name}: service says {detected}, "
                f"fresh simulator {want}"]
    return []


def check_run_job(seed: int, result: dict) -> List[str]:
    """A service run job on s27 equals the same config run directly."""
    from repro.circuit import s27
    from repro.core import GaTestGenerator, TestGenConfig

    direct = GaTestGenerator(s27(), TestGenConfig(seed=seed)).run()
    if (direct.test_sequence != result["test_sequence"]
            or direct.detected != result["detected"]):
        return [f"run job seed {seed} differs from a direct GaTestGenerator run"]
    return []


#: The checks ``main`` runs, by the name ``common.run_checks`` gives.
CHECKS = {"ga": check_ga_result, "fsim": check_fsim_job, "run": check_run_job}


def main(argv: List[str]) -> int:
    """``python3 e2ebench/refsim.py TASKS``: run the ``[name, args]``
    pairs of the JSON file ``TASKS`` and print their failures as one JSON
    list."""
    with open(argv[0], encoding="utf-8") as handle:
        tasks = json.load(handle)
    errors = []
    for name, args in tasks:
        errors.extend(CHECKS[name](*args))
    print(json.dumps(errors))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
