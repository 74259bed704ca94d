"""Circuit execution: sampling shots and exact branch enumeration.

Both quantum engines run on one branch walker, `walk`.  A program is a
flat list of steps over register positions: `Gate(matrix, rows, regs,
cond)`, `Alloc(single)` (a fresh highest register) and `Measure(reg, key,
basis, drop)`, checked and placed once, when the program is built, so
the branches live at one step share a width and are walked as one
stack; a circuit of at least _WIDE (2^15) amplitudes fuses its one-qubit
gates there (`circuit_program`).  At a measurement a split rule picks
the outcomes to follow: `exact_split` enumerates both, `stratified_split`
divides a shot count binomially and `shot_split` samples one.
`run_circuit` walks its program once with the stratified rule: the
histogram is multinomial over the leaves, as for independent shots, and
each realised branch is evolved once, not once per shot.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

import numpy as np

from .circuit import Circuit
from .gates import gate_matrix
from .statevector import _WIDE, StateVector, _is_controlled

EXACT_STATE_MAX_WIDTH = 20

# A row with fewer shots walks alone: stacking so few rows costs more
# numpy calls than it saves.
_FEW_SHOTS = 8


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
    """Measure `reg` and record the outcome under `key`.  `basis`, if set,
    has key tuples `s_domain` and `t_domain`, and `rotation(s, t)` takes
    the measurement basis adapted to their outcome parities s and t to Z;
    with `drop` the measured register is removed."""
    reg: int
    key: object
    basis: object = None
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

    The live branches at one step form a stack, the rows of one
    `StateVector` (see `_apply`): each gate, allocation, basis rotation
    (one per (s, t) parity) and |half|^2 is one call over its rows.
    Phase 1 (`grow`) builds every child of nonzero probability and each
    row's p1 = |half 1|^2; phase 2 visits that tree depth first, bit 0
    first, calling `split(p1, weight)` for the (bit, weight) branches to
    follow and `leaf(outcomes, weight, state)` at each finished branch,
    as a walk of one branch at a time would.  A branch of zero
    probability raises only if it is followed.  A stack of several rows
    holds fewer than _WIDE (2^15) amplitudes and, when the weight is a
    shot count, no more rows than its shots; past either bound (or under
    _FEW_SHOTS shots) each row goes on alone, through
    `StateVector.collapse`.  Every stacked call gives each row the bytes
    of its own state: rows sum |half|^2 as one state does, and in-place
    multiplies on one element per row run row by row
    (`statevector._scale_rows`).
    """
    outcomes, todo = {}, []  # todo: (stack, level, row, weight, key, bit), last first
    shots = isinstance(weight, (int, np.integer))

    def rows(weight):
        """The rows a stack of this weight may hold."""
        return (weight if weight >= _FEW_SHOTS else 1) if shots else _WIDE

    def alone(row, step, i, p1, branches):
        """The row measures alone at program[i]: its first branch and weight,
        or None; a later branch is queued, to collapse `row` in place."""
        if not branches:
            return None
        reg, key, _basis, drop = step
        if len(branches) > 1:
            (bit, w), = branches[1:]
            todo.append((_Stack(row, step, i, [p1]), 1, 0, w, None, bit))
        bit, weight = branches[0]
        outcomes[key] = bit
        p = 1.0 - (float(row._sq_norms(reg, 0)[0]) if bit else p1)
        return row.collapse(reg, bit, p, drop, len(branches) == 1), weight

    def grow(i, state, weight):
        """Phase 1 from program[i] on one row: the task visiting the root of
        its stack, or None.  A lone root row measures at once."""
        stack, limit = _Stack(), rows(weight)
        while i < len(program):
            step = program[i]
            if type(step) is Gate:
                if step.cond is None:
                    state._apply(step.matrix, step.rows, step.regs)
                else:
                    _apply_to(state, stack.bits(step.cond, outcomes), step.matrix,
                              step.rows, step.regs)
            elif type(step) is Alloc:
                if state.amps.size >> state.n > 1 and 2 * state.amps.size >= _WIDE:
                    break
                state.append_qubit(step.single)
            elif (grown := stack.measure(state, step, outcomes, limit)) is not None:
                state = grown
            elif stack.levels or state.amps.size >> state.n > 1:
                break
            elif (branch := alone(state, step, i, stack.q1[0],
                                  split(min(stack.q1[0], 1.0), weight))) is None:
                return None
            else:
                (state, weight), limit = branch, rows(branch[1])
            i += 1
        else:
            step = None
        stack.state, stack.step, stack.i = state, step, i
        return stack, 0, 0, weight, None, 0

    task = grow(0, state, weight)
    while task or todo:
        stack, level, r, weight, key, bit = task or todo.pop()
        task = None
        if key is not None:
            outcomes[key] = bit
        if r < 0:
            raise ValueError(f"projection onto outcome {bit} has zero probability")
        if level < len(stack.levels):
            key, p1s, children = stack.levels[level]
            branches = split(p1s[r], weight)
            for bit, w in branches[:0:-1]:
                todo.append((stack, level + 1, children[bit][r], w, key, bit))
            if branches:
                bit, w = branches[0]
                task = (stack, level + 1, children[bit][r], w, key, bit)
            continue
        n, step = stack.state.n, stack.step
        row = StateVector._of(stack.state.amps[r << n:(r + 1) << n], n)
        if step is None:
            leaf(outcomes, weight, row)
            continue
        if type(step) is Measure:  # the row measures alone, or takes its later branch
            branches = ([(bit, weight)] if level > len(stack.levels)
                        else split(min(stack.q1[r], 1.0), weight))  # rounding can exceed 1
            if (branch := alone(row, step, stack.i, stack.q1[r], branches)) is None:
                continue
            row, weight = branch
        task = grow(stack.i + (type(step) is Measure), row, weight)


class _Stack:
    """Per measurement, `levels` holds its key, each row's p1 and child
    index for bit 0 and 1 (-1: none); `outs` holds each row's outcome of
    the keys in `cols`.  The rows, `state`, go on alone at program[i],
    `step` (None at the end; `q1` holds their |half 1|^2 at a Measure)."""
    __slots__ = ("levels", "cols", "outs", "state", "step", "i", "q1")

    def __init__(self, state=None, step=None, i=0, q1=None):
        self.levels, self.cols, self.outs = [], {}, None
        self.state, self.step, self.i, self.q1 = state, step, i, q1

    def bits(self, key, outcomes):
        return self.outs[:, self.cols[key]] if key in self.cols else outcomes[key]

    def measure(self, state, step, outcomes, limit):
        """Rotate each row to its basis, then return the children of every
        row (bit 0's, then bit 1's), or None (with `q1`) past a bound."""
        reg, key, basis, drop = step
        if basis is not None and not (basis.s_domain or basis.t_domain):
            u = basis.rotation(0, 0)
            state._apply(u, u.tolist(), (reg,))
        elif basis is not None:
            s, t = (sum(self.bits(k, outcomes) for k in keys) % 2
                    for keys in (basis.s_domain, basis.t_domain))
            groups = 2 * s + t
            for g in np.unique(groups).tolist() if type(groups) is np.ndarray else (groups,):
                u = basis.rotation(g >> 1, g & 1)
                _apply_to(state, groups == g, u, u.tolist(), (reg,))
        count = state.amps.size >> state.n
        size, q1 = (state.amps.size // count) >> drop, state._sq_norms(reg, 1)
        if 2 * count > limit or 2 * count * size >= _WIDE:
            self.q1 = q1.tolist()
            born = sum((p < 1.0) + (p > 0.0) for p in self.q1) if count > 1 or self.levels else 2
            if born > limit or born > 1 and born * size >= _WIDE:
                return None
        q0 = state._sq_norms(reg, 0)
        followed = (q1 < 1.0, (q1 > 0.0) & (q0 < 1.0))
        picks = [np.flatnonzero(f) for f in followed]
        src = np.concatenate(picks)
        bits = np.repeat(np.arange(2, dtype=np.int8), [len(p) for p in picks])
        scale = np.empty(len(src), complex)
        scale.real, scale.imag = 1.0 / np.sqrt(1.0 - np.where(bits, q0[src], q1[src])), -0.0
        v = state.amps.reshape(count, -1, 2, 1 << reg)
        kept = v[src, :, bits] * scale[:, None, None]
        if not drop:
            amps = np.zeros((len(src),) + v.shape[1:], complex)
            amps[np.arange(len(src)), :, bits], kept = kept, amps
        self.outs = np.column_stack((bits,) if self.outs is None else (self.outs[src], bits))
        self.cols[key] = self.outs.shape[1] - 1
        self.levels.append((key, np.minimum(q1, 1.0).tolist(),
                            [np.where(f, np.cumsum(f) + (start - 1), -1).tolist()
                             for f, start in zip(followed, (0, len(picks[0])))]))
        return StateVector._of(kept.reshape(-1), state.n - drop)


def _apply_to(state, rows, u, u_rows, regs):
    """Apply a gate to the rows of the stack `state` where `rows` (a bool
    per row, or one for all) is true."""
    if type(rows) is not np.ndarray or rows.all():
        if type(rows) is np.ndarray or rows:
            state._apply(u, u_rows, regs)
    elif rows.any():
        stack, pick = state.amps.reshape(len(rows), -1), np.flatnonzero(rows)
        part = StateVector._of(stack[pick].reshape(-1), state.n)
        part._apply(u, u_rows, regs)
        stack[pick] = part.amps.reshape(len(pick), -1)


def circuit_program(circ: Circuit):
    """Walker program of a circuit (checked when built and by
    `Circuit.validate`); every gate matrix and its rows are looked up once.

    A circuit of fewer than _WIDE (2^15) amplitudes gets one step per
    instruction.  A wider one keeps one pending product of unconditioned
    one-qubit gates per register, emitted (in ascending register order,
    unless exactly I) before every measurement, before a conditioned or
    two-qubit gate on that register and at the end; a diagonal one on the
    control of a diag(I, U) gate commutes with it and stays pending.
    """
    fuse, program, pending = 1 << circ.width >= _WIDE, [], {}

    def flush(regs):
        for r in sorted(regs):
            if r in pending and not np.array_equal(u := pending.pop(r), np.eye(2)):
                program.append(Gate(u, u.tolist(), (r,)))

    for inst in circ:
        if inst.name == "measure":
            flush(list(pending))
            program.append(Measure(inst.regs[0], inst.regs[0]))
            continue
        u, (r, *rest) = gate_matrix(inst.name, inst.params), inst.regs
        if fuse and inst.cond is None and not rest:
            pending[r] = u @ pending[r] if r in pending else u
            continue
        rows = u.tolist()
        diagonal = r in pending and pending[r][0, 1] == pending[r][1, 0] == 0
        flush(rest if inst.cond is None and diagonal and _is_controlled(rows) else inst.regs)
        program.append(Gate(u, rows, inst.regs, inst.cond))
    flush(list(pending))
    return program


def _bitstring(outcomes, keys):
    return "".join(["01"[outcomes[k]] for k in keys])


def check_shots(shots) -> int:
    """The shot count as a Python int; rejects a negative or non-integer one."""
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)) or shots < 0:
        raise ValueError(f"shots must be a non-negative integer, got {shots!r}")
    return int(shots)


def run_circuit(circ: Circuit, shots: int, seed=0) -> Counter:
    """Sample the circuit; histogram keyed by measured-register bits in
    ascending register order.

    One stratified walk: each measurement splits the shots that reach it
    with one binomial draw, so the counts are multinomial over the leaves
    exactly as for `shots` independent runs, while every realised branch
    is evolved once.
    """
    shots = check_shots(shots)
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
    (probability, StateVector)}.  Branches below probability 1e-14 are cut
    (`exact_split`): ry(1e-8) then a measurement gives only '0', not '1' (2.5e-17).
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
