"""Circuit execution: sampling shots and exact branch enumeration."""

from __future__ import annotations

from collections import Counter

import numpy as np

from .circuit import Circuit, CircuitInstruction, OutcomeRecord
from .gates import gate_matrix
from .statevector import StateVector

EXACT_STATE_MAX_WIDTH = 20


def apply_gate(state: StateVector, inst: CircuitInstruction,
               outcomes: OutcomeRecord) -> StateVector:
    """Apply one (possibly conditioned) gate instruction in place."""
    if inst.name == "measure":
        raise ValueError("apply_gate does not handle measurements")
    if inst.cond is not None:
        if inst.cond not in outcomes:
            raise ValueError(f"cond register {inst.cond} has no recorded outcome")
        if outcomes[inst.cond] == 0:
            return state
    state.apply(gate_matrix(inst.name, inst.params), inst.regs)
    return state


def measure(state: StateVector, reg: int, rng) -> int:
    """Computational-basis measurement: sample, collapse, renormalize."""
    return state.sample_bit(reg, rng)


def is_standard(circ: Circuit) -> bool:
    """True iff no gate follows any measurement and nothing is conditioned."""
    seen_measure = False
    for inst in circ:
        if inst.cond is not None:
            return False
        if inst.name == "measure":
            seen_measure = True
        elif seen_measure:
            return False
    return True


def _bitstring(outcomes, regs):
    return "".join(str(outcomes[r]) for r in regs)


def run_shot(circ: Circuit, rng, shot=0, start=0, state=None) -> OutcomeRecord:
    """Run one shot from instruction `start` on `state` (by default a
    fresh all-zero state over the circuit's width), which it mutates."""
    if state is None:
        state = StateVector(circ.width)
    outcomes = OutcomeRecord(shot)
    for inst in circ.instructions[start:]:
        if inst.name == "measure":
            outcomes[inst.regs[0]] = measure(state, inst.regs[0], rng)
        else:
            apply_gate(state, inst, outcomes)
    return outcomes


def run_circuit(circ: Circuit, shots: int, seed=0) -> Counter:
    """Sample the circuit; histogram keyed by measured-register bits in
    ascending register order.

    The gates before the first measurement draw nothing and (by
    `validate`) are unconditioned, so they are applied once per call and
    every shot starts from a copy of that prefix state.
    """
    circ.validate()
    rng = np.random.default_rng(seed)
    regs = circ.measured_regs
    insts = circ.instructions
    start = next((i for i, inst in enumerate(insts) if inst.name == "measure"),
                 len(insts))
    prefix, no_outcomes = StateVector(circ.width), OutcomeRecord()
    for inst in insts[:start]:
        apply_gate(prefix, inst, no_outcomes)
    hist = Counter()
    for shot in range(shots):
        outcomes = run_shot(circ, rng, shot, start, prefix.copy())
        hist[_bitstring(outcomes, regs)] += 1
    return hist


def exact_state(circ: Circuit) -> dict:
    """Exact branch enumeration over measurement outcomes.

    Returns {bitstring over measured registers (ascending index):
    (probability, StateVector)}.  Zero-probability branches are pruned.
    """
    circ.validate()
    if circ.width > EXACT_STATE_MAX_WIDTH:
        raise ValueError(f"circuit width {circ.width} exceeds "
                         f"{EXACT_STATE_MAX_WIDTH}-qubit enumeration limit")
    regs = circ.measured_regs
    insts = circ.instructions
    results = {}

    def walk(i, state, outcomes, prob):
        for idx in range(i, len(insts)):
            inst = insts[idx]
            if inst.name == "measure":
                reg = inst.regs[0]
                p1 = state.prob_one(reg)
                live = [(bit, p) for bit, p in ((0, 1.0 - p1), (1, p1)) if p >= 1e-14]
                for bit, p in live:
                    # the last live branch takes the parent state itself
                    branch = state if bit == live[-1][0] else state.copy()
                    branch.project(reg, bit)
                    sub = OutcomeRecord()
                    sub.update(outcomes)
                    sub[reg] = bit
                    walk(idx + 1, branch, sub, prob * p)
                return
            apply_gate(state, inst, outcomes)
        results[_bitstring(outcomes, regs)] = (prob, state)

    walk(0, StateVector(circ.width), OutcomeRecord(), 1.0)
    return results


def branch_probabilities(circ: Circuit) -> dict:
    return {key: p for key, (p, _state) in exact_state(circ).items()}


def histogram_to_csv(hist: Counter, path):
    with open(path, "w") as f:
        f.write("bitstring,count\n")
        for key in sorted(hist):
            f.write(f"{key},{hist[key]}\n")
