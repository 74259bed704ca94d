"""The stacked branch walker against a walker of one branch at a time.

`reference_walk` is the walker as it was before branches were stacked,
kept verbatim except that it reads a measurement basis through
`rotation(*parities(outcomes))`.  On every program and split rule the
stacked `walk` must call `leaf` with the same outcomes, the same weights
and the same amplitude bytes, in the same order, and leave the RNG in the
same state.  Byte equality holds on any numpy SIMD dispatch, so this
module also runs with numpy's baseline loops (see the CI workflow).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnetsim.backend.circuit import Circuit
from qnetsim.backend.simulator import (Alloc, Gate, circuit_program, exact_split,
                                       run_circuit, shot_split, stratified_split, walk)
from qnetsim.backend.statevector import StateVector
from qnetsim.mbqc.engine import _program
from qnetsim.mbqc.pattern import MeasurementSpec, ResourceGraph


def _sq_norm(a) -> float:
    """Sum of |a|^2 over a 2-d complex view whose last axis is contiguous,
    read in place as (re, im) pairs."""
    f = a.view(np.float64)
    return float(np.einsum("ij,ij->", f, f))


def reference_walk(program, state, split, weight, leaf):
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
                    u = basis.rotation(*basis.parities(outcomes))
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


def _trace(walker, program, state, rule, weight, seed):
    """Every leaf call of one walk, then how it ended and the RNG state."""
    rng = np.random.default_rng(seed)
    split = {"exact": exact_split, "stratified": stratified_split(rng),
             "shot": shot_split(rng)}[rule] if isinstance(rule, str) else rule
    leaves = []

    def leaf(outcomes, w, state):
        leaves.append((dict(outcomes), w, state.n, state.amps.tobytes()))

    try:
        walker(program, state, split, weight, leaf)
        end = None
    except ValueError as error:
        end = str(error)
    return leaves, end, rng.bit_generator.state


def assert_walks_match(program, state, rule, weight, seed=0):
    expected = _trace(reference_walk, program, state.copy(), rule, weight, seed)
    assert _trace(walk, program, state.copy(), rule, weight, seed) == expected


ONE_QUBIT = ["h", "x", "y", "z", "s", "t", "rx", "ry", "rz"]
TWO_QUBIT = ["cnot", "cz", "cy", "crx", "cry", "crz", "swap"]


@st.composite
def dynamic_circuits(draw):
    """Width 1-8: complex one-qubit rotations, some conditioned on earlier
    outcomes, two-qubit gates and mid-circuit measurements."""
    width = draw(st.integers(1, 8))
    circ, free, measured = Circuit(), list(range(width)), []
    angle = st.floats(0.0, 2 * np.pi, allow_nan=False)
    for _ in range(draw(st.integers(1, 18))):
        if not free:
            break
        kind = draw(st.sampled_from(["1q", "1q", "2q", "measure"]))
        if kind == "2q" and len(free) >= 2:
            name = draw(st.sampled_from(TWO_QUBIT))
            a, b = draw(st.permutations(free))[:2]
            circ.add(name, (a, b), params=(draw(angle),) if name.startswith("cr") else None)
        elif kind == "measure":
            q = draw(st.sampled_from(free))
            circ.add("measure", q)
            free.remove(q)
            measured.append(q)
        else:
            name = draw(st.sampled_from(ONE_QUBIT))
            cond = draw(st.sampled_from([None] + measured))
            circ.add(name, draw(st.sampled_from(free)),
                     params=(draw(angle),) if name.startswith("r") else None, cond=cond)
    if not measured:
        circ.add("measure", free[0])
    return circ


@st.composite
def adaptive_patterns(draw):
    """Up to 6 vertices, an input state on up to 2 of them, and XY, YZ or
    XZ measurements adapting on earlier outcomes through s and t domains."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    inputs = draw(st.permutations(range(n)))[:draw(st.integers(0, min(n, 2)))]
    state = None
    if inputs:
        amps = np.array(draw(st.lists(st.complex_numbers(max_magnitude=1, allow_nan=False,
                                                         allow_infinity=False),
                                      min_size=2 ** len(inputs), max_size=2 ** len(inputs))))
        if np.linalg.norm(amps) < 0.1:
            amps = np.ones(2 ** len(inputs))
        state = StateVector(amplitudes=amps / np.linalg.norm(amps))
    graph = ResourceGraph(range(n), edges, input_vertices=inputs, input_state=state)
    order = draw(st.permutations(range(n)))
    specs = {}
    for k, v in enumerate(order):
        earlier = order[:k]
        specs[v] = MeasurementSpec(
            v, draw(st.sampled_from(["XY", "YZ", "XZ"])),
            draw(st.floats(0.0, 2 * np.pi, allow_nan=False)),
            s_domain=tuple(u for u in earlier if draw(st.booleans())),
            t_domain=tuple(u for u in earlier if draw(st.booleans())))
    return graph, order, specs


rules = st.one_of(st.just(("exact", 1.0)), st.just(("shot", 1)),
                  st.tuples(st.just("stratified"),
                            st.one_of(st.sampled_from([1, 2, 3, 100_000]),
                                      st.integers(1, 100_000))))


@settings(max_examples=150, deadline=None)
@given(dynamic_circuits(), rules, st.integers(0, 2**32 - 1))
def test_stacked_walk_matches_the_reference_on_dynamic_circuits(circ, rule, seed):
    assert_walks_match(circuit_program(circ), StateVector(circ.width), *rule, seed)


@settings(max_examples=120, deadline=None)
@given(adaptive_patterns(), st.booleans(), rules, st.integers(0, 2**32 - 1))
def test_stacked_walk_matches_the_reference_on_adaptive_patterns(pattern, dense, rule,
                                                                 seed):
    graph, order, specs = pattern
    state = StateVector(0) if graph.input_state is None else graph.input_state
    assert_walks_match(_program(graph, order, specs, dense)[0], state, *rule, seed)


def _chain(n, seed):
    rng = np.random.default_rng(seed)
    graph = ResourceGraph(range(n), [(i, i + 1) for i in range(n - 1)])
    specs = {v: MeasurementSpec(v, "XY", float(rng.uniform(0, 2 * np.pi)))
             for v in range(n)}
    return _program(graph, list(range(n)), specs)[0]


@pytest.mark.parametrize("rule,weight", [("stratified", 300), ("stratified", 1),
                                         ("shot", 1)])
def test_a_40_vertex_chain_at_few_shots_matches(rule, weight):
    """More fair measurements than the shots can fill: the stack stops at
    the shot count and its rows go on alone."""
    assert_walks_match(_chain(40, 4), StateVector(0), rule, weight, seed=11)


def test_one_shot_of_20_fair_measurements_matches():
    """20 qubits: each row is past the stack bound and walks alone."""
    circ = Circuit()
    for q in range(20):
        circ.add("h", q)
    for q in range(19):
        circ.add("cz", (q, q + 1))
    for q in range(20):
        circ.add("measure", q)
    assert_walks_match(circuit_program(circ), StateVector(20), "stratified", 1, seed=5)
    hist = run_circuit(circ, 1, seed=5)
    assert sum(hist.values()) == 1 and len(next(iter(hist))) == 20


def test_a_stack_at_the_amplitude_bound_goes_on_row_by_row_at_an_allocation():
    """Vertex 0's outcome makes two rows, then its star neighbour 1
    allocates 14 more vertices: two rows of 2^14 amplitudes reach _WIDE."""
    graph = ResourceGraph(range(16), [(1, v) for v in range(2, 16)])
    specs = {v: MeasurementSpec(v, "XY", 1.0 + 0.3 * v) for v in range(16)}
    program = _program(graph, list(range(16)), specs)[0]
    assert_walks_match(program, StateVector(0), "stratified", 40, seed=3)


def test_a_zero_probability_branch_raises_only_when_followed():
    program, state = circuit_program(Circuit().add("x", 0).add("measure", 0)), StateVector(1)
    ones = lambda p1, w: [(1, w)]  # noqa: E731
    both = lambda p1, w: [(0, w), (1, w)]  # noqa: E731
    for split in (ones, both):
        assert_walks_match(program, state, split, 1)
    assert _trace(walk, program, state.copy(), ones, 1, 0)[:2] == (
        [({0: 1}, 1, 1, np.array([0, 1], complex).tobytes())], None)
    assert _trace(walk, program, state.copy(), both, 1, 0)[:2] == (
        [], "projection onto outcome 0 has zero probability")
