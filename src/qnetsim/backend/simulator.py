"""Circuit execution: sampling shots and exact branch enumeration.

Both quantum engines run on one branch walker, `walk`.  A program is a
flat list of steps over register positions: `Gate(matrix, rows, regs,
cond)`, `Alloc(single)` (a fresh highest register) and `Measure(reg, key,
basis, drop)`, checked once, when the program is built.  At a
measurement a split rule picks the outcomes to follow: `exact_split`
enumerates both, `stratified_split` divides a shot count
binomially and `shot_split` samples one.  `run_circuit` walks its
program once with the stratified rule: the histogram is multinomial over
the leaves, as for independent shots, and each realised branch is
evolved once, not once per shot.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, NamedTuple

import numpy as np

from .circuit import Circuit
from .gates import gate_matrix
from .statevector import StateVector, _sq_norm

EXACT_STATE_MAX_WIDTH = 20


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


class Gate(NamedTuple):
    """Apply the complex `matrix` (`rows` is its `tolist()`) to `regs`;
    with `cond`, only if that key measured 1."""
    matrix: np.ndarray
    rows: list
    regs: tuple
    cond: object = None


class Alloc(NamedTuple):
    """Tensor the one-qubit state `single` on as the new highest register."""
    single: np.ndarray


class Measure(NamedTuple):
    """Measure `reg` and record the outcome under `key`.  `basis(outcomes)`,
    if set, gives the rotation taking the measurement basis to Z; with
    `drop` the measured register is removed."""
    reg: int
    key: object
    basis: Callable | None = None
    drop: bool = False


def exact_split(p1, prob):
    """Both outcomes of non-negligible probability, weighted by prob * p."""
    return [(bit, prob * p) for bit, p in ((0, 1.0 - p1), (1, p1)) if p >= 1e-14]


def stratified_split(rng):
    """Split a shot count binomially: one draw, only when 0 < p1 < 1."""
    def split(p1, n):
        n1 = int(rng.binomial(n, p1)) if 0.0 < p1 < 1.0 else (n if p1 >= 1.0 else 0)
        return [(bit, m) for bit, m in ((0, n - n1), (1, n1)) if m]
    return split


def shot_split(rng):
    """One sampled outcome per measurement: a single rng.random() draw."""
    return lambda p1, weight: ((int(rng.random() < p1), weight),)


def walk(program, state, split, weight, leaf):
    """Run `program` on `state`, branching at every measurement.

    Gates run unchecked, through `StateVector._apply`.  A measurement
    rotates by its basis (if any) and reads |half 1|^2 once, as the p1 it
    passes to `split(p1, weight)` for the (bit, weight) branches to follow
    and as bit 0's divisor 1 - p1; |half 0|^2 is read only for bit 1.
    `StateVector.collapse` builds each branch in one pass, the last in
    `state` itself.  Each finished branch calls `leaf(outcomes, weight,
    state)`, where outcomes maps key -> bit.  The walk is depth first, bit
    0 before bit 1.
    """
    outcomes = {}

    def run(i, state, weight):
        while i < len(program):
            step = program[i]
            i += 1
            if type(step) is Gate:
                if step.cond is None or outcomes[step.cond]:
                    state._apply(step.matrix, step.rows, step.regs)
            elif type(step) is Alloc:
                state.append_qubit(step.single)
            else:
                reg, key, basis, drop = step
                if basis is not None:
                    u = basis(outcomes)
                    state._apply(u, u.tolist(), (reg,))
                half0, half1 = state._halves(reg)
                p1 = _sq_norm(half1)
                branches = split(min(p1, 1.0), weight)  # rounding can exceed 1
                if not branches:
                    return
                last = branches[-1][0]
                for bit, weight in branches:
                    p = 1.0 - (_sq_norm(half0) if bit else p1)
                    branch = state.collapse(reg, bit, p, drop, bit == last)
                    outcomes[key] = bit
                    if bit != last:
                        run(i, branch, weight)
        leaf(outcomes, weight, state)

    run(0, state, weight)


def circuit_program(instructions):
    """Walker program of circuit instructions (checked when built and by
    `Circuit.validate`), one step each; every gate matrix and its rows are
    looked up once."""
    return [Measure(inst.regs[0], inst.regs[0]) if inst.name == "measure"
            else Gate(u := gate_matrix(inst.name, inst.params), u.tolist(), inst.regs,
                      inst.cond)
            for inst in instructions]


def _bitstring(outcomes, regs):
    return "".join(str(outcomes[r]) for r in regs)


def check_shots(shots):
    """Reject a shot count that is negative or not an integer."""
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)) or shots < 0:
        raise ValueError(f"shots must be a non-negative integer, got {shots!r}")


def run_circuit(circ: Circuit, shots: int, seed=0) -> Counter:
    """Sample the circuit; histogram keyed by measured-register bits in
    ascending register order.

    One stratified walk: each measurement splits the shots that reach it
    with one binomial draw, so the counts are multinomial over the leaves
    exactly as for `shots` independent runs, while every realised branch
    is evolved once.
    """
    check_shots(shots)
    circ.validate()
    regs = circ.measured_regs
    hist = Counter()

    def leaf(outcomes, n, _state):
        if n:
            hist[_bitstring(outcomes, regs)] += n

    walk(circuit_program(circ), StateVector(circ.width),
         stratified_split(np.random.default_rng(seed)), shots, leaf)
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
    results = {}

    def leaf(outcomes, prob, state):
        results[_bitstring(outcomes, regs)] = (prob, state)

    walk(circuit_program(circ), StateVector(circ.width), exact_split, 1.0, leaf)
    return results


def branch_probabilities(circ: Circuit) -> dict:
    return {key: p for key, (p, _state) in exact_state(circ).items()}


def histogram_to_csv(hist: Counter, path):
    with open(path, "w") as f:
        f.write("bitstring,count\n")
        for key in sorted(hist):
            f.write(f"{key},{hist[key]}\n")
