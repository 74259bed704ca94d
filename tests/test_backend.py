"""Statevector engine: gates, convention, dynamic circuits, serialization."""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnetsim.backend import (Circuit, CircuitInstruction, StateVector,
                             exact_state, gate_arity, gate_matrix,
                             is_standard, run_circuit, controlled_name,
                             GATE_NAMES)
from qnetsim.backend.simulator import (branch_probabilities, circuit_program,
                                       stratified_split, walk)
from qnetsim.backend.statevector import _WIDE


# ---- gates ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(GATE_NAMES - {"measure"}))
def test_gates_are_unitary(name):
    params = (0.7,) if name in ("rx", "ry", "rz", "crx", "cry", "crz") else None
    u = gate_matrix(name, params)
    assert np.allclose(u @ u.conj().T, np.eye(len(u)), atol=1e-12)


def test_gate_arities():
    assert gate_arity("h") == 1
    assert gate_arity("cnot") == 2
    assert gate_arity("swap") == 2


def test_controlled_name_mapping():
    assert controlled_name("x") == "cnot"
    assert controlled_name("z") == "cz"
    assert controlled_name("ry") == "cry"
    with pytest.raises(ValueError):
        controlled_name("swap")


def test_rotation_decomposition_identity():
    # rz(pi/2) equals S up to global phase
    rz = gate_matrix("rz", (np.pi / 2,))
    s = gate_matrix("s")
    phase = s[0, 0] / rz[0, 0]
    assert np.allclose(phase * rz, s, atol=1e-12)


# ---- statevector convention ----------------------------------------------

def test_little_endian_register_zero_is_least_significant():
    state = StateVector(2)
    state.apply(gate_matrix("x"), (0,))
    # |01> in register order (reg1=0, reg0=1) -> amplitude index 1
    assert np.allclose(state.amps, [0, 1, 0, 0])


def test_append_qubit_becomes_highest_register():
    state = StateVector(1)
    state.apply(gate_matrix("x"), (0,))
    state.append_qubit()
    assert state.n == 2
    assert np.allclose(state.amps, [0, 1, 0, 0])  # still |01>


def test_two_qubit_gate_order_matters():
    state = StateVector(2)
    state.apply(gate_matrix("x"), (0,))
    state.apply(gate_matrix("cnot"), (0, 1))  # control reg 0
    assert np.allclose(state.amps, [0, 0, 0, 1])  # |11>
    other = StateVector(2)
    other.apply(gate_matrix("x"), (0,))
    other.apply(gate_matrix("cnot"), (1, 0))  # control reg 1: no-op
    assert np.allclose(other.amps, [0, 1, 0, 0])


def test_project_and_remove_qubit():
    state = StateVector(2)
    state.apply(gate_matrix("h"), (0,))
    state.apply(gate_matrix("cnot"), (0, 1))
    p = state.project(0, 1)
    assert p == pytest.approx(0.5)
    state.remove_qubit(0, 1)
    assert state.n == 1
    assert np.allclose(state.amps, [0, 1])  # partner collapsed to |1>


def test_project_impossible_outcome_raises():
    state = StateVector(1)  # |0>
    with pytest.raises(ValueError):
        state.project(0, 1)



# ---- in-place kernels against a dense reference ---------------------------

def dense_operator(matrix, targets, n):
    """The 2^n x 2^n operator of `matrix` on `targets` (first target is the
    most significant bit of the matrix index): kron(matrix, I) in an order
    where the targets lead, permuted back to the register order."""
    k = len(targets)
    rest = [q for q in reversed(range(n)) if q not in targets]
    order = list(targets) + rest  # most significant first
    index = np.arange(2**n)
    perm = np.zeros(2**n, dtype=int)
    for pos, q in enumerate(order):
        perm |= ((index >> q) & 1) << (n - 1 - pos)
    full = np.kron(np.asarray(matrix), np.eye(2 ** (n - k)))
    return full[np.ix_(perm, perm)]


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(amplitudes=amps / np.linalg.norm(amps))


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / abs(np.diag(r)))


def assert_matches_dense(state, matrix, targets):
    expected = dense_operator(matrix, targets, state.n) @ state.amps
    state.apply(matrix, targets)
    assert np.max(np.abs(state.amps - expected)) < 1e-12


def one_qubit_reference(amps, matrix, reg):
    """`matrix` on register `reg` as a contraction over the state's
    (high, reg, low) axes: the reference for states too wide for a dense
    operator."""
    v = amps.reshape(-1, 2, 1 << reg)
    return np.einsum("ij,ajb->aib", matrix, v).reshape(-1)


def test_dense_reference_agrees_with_known_gates():
    # |01> (reg 0 set) under cnot with control reg 0 -> |11>
    op = dense_operator(gate_matrix("cnot"), (0, 1), 2)
    assert np.allclose(op @ [0, 1, 0, 0], [0, 0, 0, 1])
    assert np.allclose(dense_operator(gate_matrix("x"), (1,), 2) @ [1, 0, 0, 0],
                       [0, 0, 1, 0])
    rng = np.random.default_rng(3)
    amps, u = random_state(rng, 4).amps, random_unitary(rng, 2)
    for reg in range(4):
        assert np.allclose(one_qubit_reference(amps, u, reg),
                           dense_operator(u, (reg,), 4) @ amps, atol=1e-14)


EXACT_1Q = ["z", "s", "t", "x", "y"]
CONTROLLED = ["cnot", "cz", "cy", "crx", "cry", "crz"]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.data())
def test_apply_random_one_qubit_unitary_matches_dense(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    reg = data.draw(st.integers(0, n - 1))
    assert_matches_dense(random_state(rng, n), random_unitary(rng, 2), (reg,))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.data())
def test_apply_diagonal_and_antidiagonal_gates_match_dense(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    reg = data.draw(st.integers(0, n - 1))
    a, b = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
    matrix = data.draw(st.sampled_from(
        [gate_matrix(name) for name in EXACT_1Q]
        + [gate_matrix("rz", (rng.uniform(0, 2 * np.pi),)),
           np.diag([a, b]), np.array([[0, a], [b, 0]])]))
    assert_matches_dense(random_state(rng, n), matrix, (reg,))


# Widths whose states take the contiguous row kernels of apply.
WIDE_QUBITS = _WIDE.bit_length() - 1


def two_by_two(rng, kind):
    a, b, c = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
    return {"random": random_unitary(rng, 2),
            "diagonal": np.diag([a, b]),
            "anti-diagonal": np.array([[0, a], [b, 0]]),
            "hadamard-like": c * gate_matrix("h"),
            "real": gate_matrix("ry", (rng.uniform(0, 2 * np.pi),)),
            "gate": gate_matrix(["x", "y", "z", "s", "t", "h"][int(rng.integers(6))])}[kind]


@pytest.mark.parametrize("kind", ["random", "diagonal", "anti-diagonal", "hadamard-like",
                                  "real", "gate"])
@settings(max_examples=4, deadline=None)
@given(st.integers(WIDE_QUBITS, WIDE_QUBITS + 1), st.integers(0, 2**32 - 1))
def test_apply_one_qubit_gates_on_wide_states_match_reference(kind, n, seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    for reg in range(n):
        matrix = two_by_two(rng, kind)
        expected = one_qubit_reference(state.amps, matrix, reg)
        state.apply(matrix, (reg,))
        assert np.max(np.abs(state.amps - expected)) < 1e-12


@pytest.mark.parametrize("matrix,targets", [
    (gate_matrix("h"), (WIDE_QUBITS,)),  # register out of range
    (gate_matrix("rz", (0.3,)), (-1,)),
    (gate_matrix("cnot"), (1,)),  # 4x4 matrix on one register
    (np.eye(3, dtype=complex), (2,)),
    (np.ones(2, dtype=complex), (1,)),  # not a matrix
], ids=["out-of-range", "negative", "4x4-on-one", "3x3", "vector"])
def test_apply_rejects_bad_input_on_wide_states_before_writing(matrix, targets):
    state = random_state(np.random.default_rng(0), WIDE_QUBITS)
    before = state.amps.copy()
    with pytest.raises(ValueError):
        state.apply(matrix, targets)
    assert np.array_equal(state.amps, before)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 7), st.sampled_from(CONTROLLED), st.booleans(), st.data())
def test_apply_controlled_gates_match_dense(n, name, control_above, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lo = data.draw(st.integers(0, n - 2))
    hi = data.draw(st.integers(lo + 1, n - 1))
    targets = (hi, lo) if control_above else (lo, hi)
    params = (rng.uniform(0, 2 * np.pi),) if name[1] == "r" else None
    assert_matches_dense(random_state(rng, n), gate_matrix(name, params), targets)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.booleans(), st.data())
def test_apply_swap_and_random_two_qubit_unitary_match_dense(n, swap, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    targets = tuple(data.draw(st.permutations(range(n)))[:2])
    matrix = gate_matrix("swap") if swap else random_unitary(rng, 4)
    assert_matches_dense(random_state(rng, n), matrix, targets)


@pytest.mark.parametrize("matrix,targets", [
    (gate_matrix("cnot"), (1, 1)),  # duplicate targets
    (gate_matrix("h"), (3,)),  # register out of range
    (gate_matrix("h"), (-1,)),
    (gate_matrix("h"), (0, 1)),  # 2x2 matrix on two registers
    (gate_matrix("cnot"), (0,)),  # 4x4 matrix on one register
    (np.ones(2, dtype=complex), (0,)),  # not a matrix
], ids=["duplicate", "out-of-range", "negative", "2x2-on-two", "4x4-on-one",
        "vector"])
def test_apply_rejects_bad_input_before_writing(matrix, targets):
    state = random_state(np.random.default_rng(0), 3)
    before = state.amps.copy()
    with pytest.raises(ValueError):
        state.apply(matrix, targets)
    assert np.array_equal(state.amps, before)


def test_copy_is_unaffected_by_mutations_of_the_original():
    a = random_state(np.random.default_rng(1), 4)
    b = a.copy()
    before = b.amps.copy()
    a.apply(gate_matrix("h"), (2,))
    a.apply(gate_matrix("cnot"), (0, 3))
    a.apply(gate_matrix("rz", (0.4,)), (1,))
    a.project(2, 1)
    a.remove_qubit(2, 1)
    assert b.n == 4
    assert np.array_equal(b.amps, before)
    assert not np.shares_memory(a.amps, b.amps)


def test_project_keeps_the_one_minus_other_normalisation():
    state = random_state(np.random.default_rng(2), 3)
    v = state.amps.reshape(-1, 2, 2)
    p_other = float(np.vdot(v[:, 0], v[:, 0]).real)
    kept = v[:, 1].copy()
    p = state.project(1, 1)
    assert p == pytest.approx(1.0 - p_other, abs=1e-15)
    assert np.allclose(state.amps.reshape(-1, 2, 2)[:, 1], kept / np.sqrt(p), atol=1e-15)
    assert not state.amps.reshape(-1, 2, 2)[:, 0].any()


# ---- circuits ------------------------------------------------------------

def test_circuit_builder_and_width():
    circ = Circuit().add("h", 0).add("cnot", (0, 2)).add("measure", 2)
    assert circ.width == 3
    assert circ.measured_regs == [2]


def test_instruction_validation():
    with pytest.raises(ValueError):
        CircuitInstruction("nope", (0,))
    with pytest.raises(ValueError):
        CircuitInstruction("cnot", (1, 1))  # duplicate registers
    with pytest.raises(ValueError):
        CircuitInstruction("measure", (0,), cond=1)  # conditioned measurement


def test_validate_rejects_gate_after_measure_on_same_register():
    circ = Circuit().add("measure", 0).add("x", 0)
    with pytest.raises(ValueError):
        circ.validate()


def test_validate_rejects_cond_on_unmeasured_register():
    circ = Circuit().add("x", 0, cond=1).add("measure", 0)
    with pytest.raises(ValueError):
        circ.validate()


def test_json_round_trip():
    circ = (Circuit().add("h", 0).add("ry", 1, params=(0.5,))
            .add("measure", 0).add("x", 1, cond=0).add("measure", 1))
    text = circ.to_json()
    doc = json.loads(text)
    assert doc[0] == {"name": "h", "regs": [0], "params": None, "cond": None}
    assert Circuit.from_json(text) == circ


# ---- simulation ----------------------------------------------------------

def test_bell_pair_statistics():
    circ = Circuit().add("h", 0).add("cnot", (0, 1)).add("measure", 0).add("measure", 1)
    hist = run_circuit(circ, shots=4000, seed=1)
    assert set(hist) == {"00", "11"}
    assert abs(hist["00"] / 4000 - 0.5) < 0.05


def test_conditional_gate_tracks_outcome():
    # measure |+>; flip qubit 1 iff the outcome was 1 -> perfectly correlated
    circ = (Circuit().add("h", 0).add("measure", 0)
            .add("x", 1, cond=0).add("measure", 1))
    hist = run_circuit(circ, shots=2000, seed=3)
    assert set(hist) == {"00", "11"}


def test_exact_state_bell():
    circ = Circuit().add("h", 0).add("cnot", (0, 1)).add("measure", 0).add("measure", 1)
    branches = exact_state(circ)
    assert set(branches) == {"00", "11"}
    for _key, (p, state) in branches.items():
        assert p == pytest.approx(0.5)
        assert state.n == 2


def test_exact_state_prunes_impossible_branches():
    circ = Circuit().add("x", 0).add("measure", 0)
    assert set(exact_state(circ)) == {"1"}


def test_is_standard():
    assert is_standard(Circuit().add("h", 0).add("measure", 0))
    assert not is_standard(Circuit().add("measure", 0).add("x", 1))
    assert not is_standard(Circuit().add("h", 0).add("measure", 0).add("x", 1, cond=0))


def test_sampling_agrees_with_exact_probabilities():
    circ = (Circuit().add("ry", 0, params=(1.1,)).add("cnot", (0, 1))
            .add("measure", 0).add("measure", 1))
    probs = branch_probabilities(circ)
    hist = run_circuit(circ, shots=20000, seed=5)
    for key, p in probs.items():
        assert abs(hist[key] / 20000 - p) < 0.02


def test_run_circuit_draws_like_one_stratified_walk_from_scratch():
    """run_circuit must draw exactly what one stratified walk of the whole
    program from the all-zero state draws."""
    circ = (Circuit().add("h", 0).add("ry", 1, params=(0.7,)).add("cnot", (0, 2))
            .add("measure", 0).add("x", 1, cond=0).add("h", 2)
            .add("measure", 1).add("measure", 2))

    def stratified_walk(seed):
        hist = Counter()

        def leaf(outcomes, n, _state):
            hist["".join(str(outcomes[r]) for r in circ.measured_regs)] += n

        walk(circuit_program(circ), StateVector(circ.width),
             stratified_split(np.random.default_rng(seed)), 300, leaf)
        return hist

    for seed in (17, 18, 19):
        assert run_circuit(circ, 300, seed=seed) == stratified_walk(seed)


def random_dynamic_circuit(rng, width):
    """Random gates with a mid-circuit measurement every fourth step; half
    of the one-qubit gates after one are conditioned on an earlier outcome."""
    circ = Circuit()
    free, measured = list(range(width)), []
    for step in range(12):
        if step % 4 == 3 and len(free) > 1:
            q = free.pop(int(rng.integers(len(free))))
            circ.add("measure", q)
            measured.append(q)
        elif rng.random() < 0.6 or len(free) < 2:
            name = ["h", "x", "y", "z", "s", "t", "rx", "ry", "rz"][int(rng.integers(9))]
            params = (float(rng.uniform(0, 2 * np.pi)),) if name[0] == "r" else None
            cond = int(rng.choice(measured)) if measured and rng.random() < 0.5 else None
            circ.add(name, int(rng.choice(free)), params=params, cond=cond)
        else:
            a, b = rng.choice(free, size=2, replace=False)
            circ.add("cnot", (int(a), int(b)))
    for q in free:
        circ.add("measure", q)
    return circ


def test_sure_branch_probability_does_not_exceed_one():
    # its sure measurement once read p1 = 1 + 4e-16 from rounding
    probs = branch_probabilities(random_dynamic_circuit(np.random.default_rng(5683867), 5))
    assert max(probs.values()) <= 1.0


def tvd_bound(probs, shots, delta=1e-9):
    """TVD that `shots` samples of `probs` exceed with probability < delta:
    E[TVD] <= sum_k sqrt(p_k (1 - p_k) / n) / 2 by Jensen, and McDiarmid
    adds sqrt(ln(1/delta) / 2n) since one sample moves TVD by <= 1/n."""
    mean = 0.5 * sum(math.sqrt(p * (1 - p) / shots) for p in probs.values())
    return mean + math.sqrt(math.log(1 / delta) / (2 * shots))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 3000))
def test_run_circuit_counts_follow_the_branch_law(seed, width, shots):
    circ = random_dynamic_circuit(np.random.default_rng(seed), width)
    probs = branch_probabilities(circ)
    hist = run_circuit(circ, shots, seed=seed)
    assert sum(hist.values()) == shots
    assert set(hist) <= set(probs)
    tvd = 0.5 * sum(abs(hist.get(k, 0) / shots - probs.get(k, 0.0))
                    for k in set(hist) | set(probs))
    assert tvd <= tvd_bound(probs, shots)


def test_random_dynamic_circuits_carry_conditioned_gates():
    circuits = [random_dynamic_circuit(np.random.default_rng(seed), 4) for seed in range(20)]
    assert sum(any(inst.cond is not None for inst in circ) for circ in circuits) >= 10


@pytest.mark.parametrize("shots", [-5, 2.5, 3.0, "10", True, None])
def test_run_circuit_rejects_bad_shot_counts(shots):
    with pytest.raises(ValueError, match="shots"):
        run_circuit(Circuit().add("h", 0).add("measure", 0), shots)


def test_run_circuit_takes_zero_and_numpy_shot_counts():
    circ = Circuit().add("h", 0).add("measure", 0)
    assert run_circuit(circ, 0) == {}
    assert run_circuit(Circuit().add("x", 0), 0) == {}
    assert sum(run_circuit(circ, np.int64(50)).values()) == 50


def test_exact_state_leaf_states_are_distinct():
    circ = (Circuit().add("h", 0).add("h", 1).add("cnot", (1, 2))
            .add("measure", 0).add("measure", 1).add("x", 2, cond=1).add("measure", 2))
    states = [state for _p, state in exact_state(circ).values()]
    assert len(states) == 4
    for i, a in enumerate(states):
        for b in states[i + 1:]:
            assert a is not b
            assert not np.shares_memory(a.amps, b.amps)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ghz_parity_property(seed):
    """GHZ outcomes are always all-zeros or all-ones."""
    circ = (Circuit().add("h", 0).add("cnot", (0, 1)).add("cnot", (1, 2))
            .add("measure", 0).add("measure", 1).add("measure", 2))
    hist = run_circuit(circ, shots=64, seed=seed)
    assert set(hist) <= {"000", "111"}


def test_histogram_csv(tmp_path):
    from qnetsim.backend import histogram_to_csv
    circ = Circuit().add("h", 0).add("measure", 0)
    hist = run_circuit(circ, shots=100, seed=0)
    out = tmp_path / "h.csv"
    histogram_to_csv(hist, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "bitstring,count"
    assert len(lines) == 3
