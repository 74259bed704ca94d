"""Wide circuits: one-qubit gate fusion in `circuit_program`, the
permutation kernel, and integer shot counts.

A circuit of at least _WIDE amplitudes fuses its one-qubit gates when its
program is built; a reference that applies every instruction through
`StateVector.apply`, one by one, must give the same branches, the same
probabilities and the same leaf states to within 1e-12.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnetsim.backend import Circuit, StateVector, exact_state, gate_matrix, run_circuit
from qnetsim.backend.simulator import Gate, Measure, circuit_program, exact_split
from qnetsim.backend.statevector import _WIDE
from qnetsim.mbqc import MeasurementSpec, ResourceGraph
from qnetsim.mbqc.engine import sample_pattern

WIDE_QUBITS = _WIDE.bit_length() - 1

ONE_QUBIT = ["h", "x", "y", "z", "s", "t", "rx", "ry", "rz"]
TWO_QUBIT = ["cnot", "cz", "cy", "crx", "swap"]


def reference_exact(circ):
    """Exact enumeration with every instruction applied through
    `StateVector.apply` in order, both outcomes kept as `exact_split`
    keeps them, and each branch made by `project`."""
    regs, insts, leaves = circ.measured_regs, circ.instructions, {}

    def run(i, state, prob, outcomes):
        for j in range(i, len(insts)):
            inst = insts[j]
            if inst.name == "measure":
                reg = inst.regs[0]
                for bit, p in exact_split(state.prob_one(reg), prob):
                    branch = state.copy()
                    branch.project(reg, bit)
                    run(j + 1, branch, p, {**outcomes, reg: bit})
                return
            if inst.cond is None or outcomes[inst.cond]:
                state.apply(gate_matrix(inst.name, inst.params), inst.regs)
        leaves["".join(str(outcomes[r]) for r in regs)] = (prob, state)

    run(0, StateVector(circ.width), 1.0, {})
    return leaves


@st.composite
def wide_circuits(draw):
    """15-16 qubits; gates mostly on a few registers, so that runs of
    one-qubit gates fuse, with mid-circuit measurements and conditioned
    gates after them."""
    width = draw(st.integers(WIDE_QUBITS, WIDE_QUBITS + 1))
    pool = sorted(set(draw(st.lists(st.integers(0, width - 1), min_size=3, max_size=5)))
                  | {width - 1})
    circ, measured = Circuit(), []
    angle = st.floats(0.0, 2 * np.pi, allow_nan=False)
    for _ in range(draw(st.integers(4, 30))):
        free = [r for r in pool if r not in measured]
        kind = draw(st.sampled_from(["1q", "1q", "1q", "2q", "measure"]))
        if kind == "2q" and len(free) >= 2:
            name = draw(st.sampled_from(TWO_QUBIT))
            a, b = draw(st.permutations(free))[:2]
            circ.add(name, (a, b), params=(draw(angle),) if name == "crx" else None,
                     cond=draw(st.sampled_from([None, None] + measured)))
        elif kind == "measure" and len(free) >= 2:
            q = draw(st.sampled_from(free))
            circ.add("measure", q)
            measured.append(q)
        else:
            name = draw(st.sampled_from(ONE_QUBIT))
            circ.add(name, draw(st.sampled_from(free)),
                     params=(draw(angle),) if name.startswith("r") else None,
                     cond=draw(st.sampled_from([None, None, None] + measured)))
    circ.add("measure", draw(st.sampled_from([r for r in pool if r not in measured])))
    return circ


def segments(steps, is_measure):
    """The number of gates between consecutive measurements."""
    counts = [0]
    for step in steps:
        if is_measure(step):
            counts.append(0)
        else:
            counts[-1] += 1
    return counts


@settings(max_examples=30, deadline=None)
@given(wide_circuits(), st.integers(0, 2**32 - 1))
def test_fused_wide_circuits_match_gates_applied_one_by_one(circ, seed):
    """Probabilities agree within 1e-12 on every key, and the keys agree
    except for branches of probability at most 1e-12: a sure outcome's
    other branch has 1 - p1 equal to the norm drift (the divisor defect in
    `project`), and `exact_split` keeps it or cuts it at 1e-14 depending
    on the rounding order, which fusion changes.  Leaf states are compared
    as sqrt(p) * state, the branch before normalisation, on branches above
    1e-9, so that a small branch's 1/sqrt(p) does not magnify rounding."""
    expected = reference_exact(circ)
    got = exact_state(circ)
    for key in set(got) | set(expected):
        p, state = got.get(key, (0.0, None))
        q, reference = expected.get(key, (0.0, None))
        assert abs(p - q) <= 1e-12
        if min(p, q) > 1e-9:
            assert np.max(np.abs(np.sqrt(p) * state.amps - np.sqrt(q) * reference.amps)) <= 1e-12
    assert set(run_circuit(circ, 50, seed=seed)) <= set(expected)
    # fusion only merges gates between two measurements: no product
    # crosses one, so no gate runs once per branch that ran once before
    fused = segments(circuit_program(circ), lambda step: type(step) is Measure)
    source = segments(circ, lambda inst: inst.name == "measure")
    assert all(f <= s for f, s in zip(fused, source))


def test_a_mirrored_wide_circuit_runs_no_gate_after_its_first_measurement():
    rng = np.random.default_rng(7)
    circ = Circuit()
    for _ in range(40):
        q = int(rng.integers(WIDE_QUBITS))
        circ.add("h", q).add("rz", q, params=(float(rng.uniform(0, 2 * np.pi)),))
    for q in (3, 0, 9):
        circ.add("measure", q)
    program = circuit_program(circ)
    first = next(i for i, step in enumerate(program) if type(step) is Measure)
    assert all(type(step) is Measure for step in program[first:])
    assert sum(type(step) is Gate for step in program) <= WIDE_QUBITS


def test_narrow_circuits_get_one_step_per_instruction_with_the_gate_bytes():
    rng = np.random.default_rng(3)
    circ = Circuit()
    for _ in range(30):
        name = ONE_QUBIT[int(rng.integers(len(ONE_QUBIT)))]
        circ.add(name, int(rng.integers(WIDE_QUBITS - 1)),
                 params=(float(rng.uniform(0, 2 * np.pi)),) if name[0] == "r" else None)
        circ.add("cnot", (0, 1))
    circ.add("measure", 0).add("x", 1, cond=0).add("h", 1).add("h", 1)
    assert 1 << circ.width < _WIDE
    program = circuit_program(circ)
    assert len(program) == len(circ)
    for inst, step in zip(circ, program):
        if inst.name == "measure":
            assert step == Measure(inst.regs[0], inst.regs[0])
            continue
        u = gate_matrix(inst.name, inst.params)
        assert type(step) is Gate and step.regs == inst.regs and step.cond == inst.cond
        assert step.matrix.tobytes() == u.tobytes() and step.rows == u.tolist()


# ---- the permutation kernel ----------------------------------------------------

def permuted(amps, n, name, regs):
    """The amplitude array after a permutation gate, by index arithmetic:
    amplitude i moves to perm(i), row by row of a stack."""
    index = np.arange(1 << n)
    bit = lambda r: (index >> r) & 1  # noqa: E731
    if name == "x":
        source = index ^ (1 << regs[0])
    elif name == "cnot":
        source = index ^ (bit(regs[0]) << regs[1])
    else:
        a, b = regs
        source = index ^ ((bit(a) ^ bit(b)) * ((1 << a) | (1 << b)))
    return amps.reshape(-1, 1 << n)[:, source].reshape(-1)


@pytest.mark.parametrize("n,rows", [(3, 1), (4, 2), (5, 3), (6, 4), (WIDE_QUBITS, 1)])
def test_permutation_gates_copy_exactly_the_amplitudes_they_move(n, rows):
    rng = np.random.default_rng(n * 10 + rows)
    f = rng.normal(size=2 * (rows << n))
    f[rng.random(f.size) < 0.3] = -0.0  # signed zeros must move unchanged
    amps = f.view(complex)
    cases = [("x", (q,)) for q in range(n)]
    for a in range(n):
        for b in range(n):
            if a != b:
                cases.append(("cnot", (a, b)))
                cases.append(("swap", (a, b)))
    for name, regs in cases[::3] if n == WIDE_QUBITS else cases:
        state = StateVector._of(amps.copy(), n)
        u = gate_matrix(name)
        state._apply(u, u.tolist(), regs)
        assert state.amps.tobytes() == permuted(amps, n, name, regs).tobytes(), (name, regs)


# ---- shot counts ----------------------------------------------------------------

def test_numpy_integer_shot_counts_give_python_int_counts():
    circ = Circuit().add("h", 0).add("cnot", (0, 1)).add("rx", 1, params=(0.4,))
    circ.add("measure", 0).add("measure", 1)
    for shots in (np.int64(300), np.int32(300), np.uint16(300)):
        hist = run_circuit(circ, shots, seed=4)
        assert hist == run_circuit(circ, 300, seed=4)
        assert all(type(n) is int for n in hist.values())
        json.dumps(hist)
    graph = ResourceGraph(range(3), [(0, 1), (1, 2)])
    specs = {v: MeasurementSpec(v, "XY", 0.3 * v + 0.2) for v in range(3)}
    counts = sample_pattern(graph, [0, 1, 2], specs, np.int64(500), np.random.default_rng(2))
    assert counts == sample_pattern(graph, [0, 1, 2], specs, 500, np.random.default_rng(2))
    assert all(type(n) is int for n in counts.values())
