"""Golden quantum outputs: fixed (input, seed) pairs must keep sampling
the same outcomes.

`run_circuit` and `sample_pattern` draw one binomial per realised
measurement branch (stratified sampling); `run_pattern` draws one
`rng.random()` per measurement.  A change that only makes the
statevector engine faster leaves every digest below as it is.  A change
to the sampling law or to RNG consumption changes at least one of them,
and must say so and update the digests on purpose.

Digests are SHA-256 of the repr of the sorted histogram (or of the
per-shot outcome lists).  The inputs are built here from fixed seeds.
"""

import hashlib

import numpy as np
import pytest

from qnetsim.backend.circuit import Circuit
from qnetsim.backend.gates import gate_matrix
from qnetsim.backend.simulator import exact_state, run_circuit
from qnetsim.backend.statevector import StateVector
from qnetsim.compiler.compile import compile_protocol
from qnetsim.compiler.script import ClassicalSend, LocalOp, Transmit
from qnetsim.mbqc.engine import dense_oracle, run_pattern, sample_pattern
from qnetsim.mbqc.pattern import MeasurementSpec, ResourceGraph


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _hist_digest(hist):
    return _digest(sorted((str(k), int(v)) for k, v in hist.items()))


# ---- inputs ----------------------------------------------------------------

def ghz(n):
    circ = Circuit().add("h", 0)
    for q in range(n - 1):
        circ.add("cnot", (q, q + 1))
    for q in range(n):
        circ.add("measure", q)
    return circ


def relay(hops, theta):
    """Teleport ry(theta)|0> from n0 to n<hops>, one hop at a time, and
    compile the script to a dynamic circuit."""
    nodes = [f"n{i}" for i in range(hops + 1)]
    script = [LocalOp(nodes[0], "ry", 0, params=(theta,))]
    data = 0
    for src, dst in zip(nodes, nodes[1:]):
        pair = 1 - data
        script += [
            LocalOp(dst, "h", 0),
            LocalOp(dst, "cnot", (0, 1)),
            Transmit(dst, src, 0),
            LocalOp(src, "cnot", (data, pair)),
            LocalOp(src, "h", data),
            LocalOp(src, "measure", data),
            LocalOp(src, "measure", pair),
            ClassicalSend(src, dst, (src, data)),
            ClassicalSend(src, dst, (src, pair)),
            LocalOp(dst, "x", 1, cond=(src, pair)),
            LocalOp(dst, "z", 1, cond=(src, data)),
        ]
        data = 1
    return compile_protocol(script, nodes)


def dynamic_circuit(seed, width):
    """Random gates and three mid-circuit measurements, with half of the
    later Pauli and rotation gates conditioned on an earlier outcome."""
    rng = np.random.default_rng(seed)
    circ = Circuit()
    for q in range(width):
        circ.add("h", q)
    free = list(range(width))
    measured = []
    for step in range(18):
        kind = rng.random()
        if step % 5 == 4 and len(measured) < 3:
            q = int(rng.choice(free))
            circ.add("measure", q)
            free.remove(q)
            measured.append(q)
        elif kind < 0.6:
            name = ["h", "x", "y", "z", "s", "t", "rx", "ry", "rz"][int(rng.integers(9))]
            q = int(rng.choice(free))
            params = (float(rng.uniform(0, 2 * np.pi)),) if name[0] == "r" else None
            cond = (int(rng.choice(measured))
                    if name not in ("h", "s", "t") and measured and rng.random() < 0.5
                    else None)
            circ.add(name, q, params=params, cond=cond)
        else:
            a, b = rng.choice(free, size=2, replace=False)
            circ.add("cnot", (int(a), int(b)))
    for q in free:
        circ.add("measure", q)
    return circ


def xy_chain(n, seed):
    rng = np.random.default_rng(seed)
    graph = ResourceGraph(list(range(n)), [(i, i + 1) for i in range(n - 1)])
    specs = {v: MeasurementSpec(v, "XY", float(rng.uniform(0, 2 * np.pi)))
             for v in range(n)}
    return graph, list(range(n)), specs


def adaptive_pattern():
    """Five vertices on an entangled two-qubit input, measured out of
    label order in all three planes, with s- and t-domain adaptivity."""
    state = StateVector(2)
    state.apply(gate_matrix("ry", (0.8,)), (0,))
    state.apply(gate_matrix("cnot"), (0, 1))
    state.apply(gate_matrix("rz", (1.9,)), (1,))
    graph = ResourceGraph([0, 1, 2, 3, 4], [(0, 2), (1, 3), (2, 3), (2, 4), (3, 4)],
                          input_vertices=[0, 1], input_state=state)
    specs = {0: MeasurementSpec(0, "XY", 0.3),
             1: MeasurementSpec(1, "YZ", 0.7),
             3: MeasurementSpec(3, "XZ", 0.5, s_domain=(1,), t_domain=(0,)),
             2: MeasurementSpec(2, "XY", 1.1, s_domain=(0, 3), t_domain=(1,)),
             4: MeasurementSpec(4, "XY", 2.0, s_domain=(3,), t_domain=(0, 2))}
    return graph, [1, 0, 3, 2, 4], specs


def exact_circuit():
    """12 qubits: an entangling layer, rotations, and four measurements
    with conditioned gates between them."""
    rng = np.random.default_rng(1212)
    circ = Circuit()
    for q in range(12):
        circ.add("ry", q, params=(float(rng.uniform(0, np.pi)),))
    for q in range(11):
        circ.add("cnot", (q, q + 1))
    for q in range(0, 12, 3):
        circ.add("rz", q, params=(float(rng.uniform(0, 2 * np.pi)),))
        circ.add("h", q)
    circ.add("measure", 0).add("x", 1, cond=0).add("cry", (1, 2), params=(0.9,))
    circ.add("measure", 3).add("rz", 4, params=(1.3,), cond=3).add("h", 4)
    circ.add("measure", 4).add("measure", 7)
    return circ


# ---- golden values.  The run_circuit digests were re-pinned when it moved
# from one walk per shot to one stratified walk; the other values were taken
# before the in-place statevector kernels. --------------------------------------

GOLDEN_HISTOGRAMS = [
    ("ghz12", lambda: run_circuit(ghz(12), 1000, seed=7),
     "64da27ef460b8010d738c8756c99f10a36f8069d642d94a7060ac4a0b7673d74"),
    ("relay2", lambda: run_circuit(relay(2, 1.234), 512, seed=23),
     "9889a13fecf2fc6e3c59d4423573edd2f071410fe0b41a254e9ff477d5a6235e"),
    ("dynamic-a", lambda: run_circuit(dynamic_circuit(101, 5), 400, seed=31),
     "4d0a0710bd7acd213eb569aad48cc89a221bccd8cc53e0b48f2c891afc9a8dab"),
    ("dynamic-b", lambda: run_circuit(dynamic_circuit(102, 6), 400, seed=32),
     "316e53de78c3576f7a8f6d893ae400e6740dbff65edb45964f8932547ed15de7"),
    ("dynamic-c", lambda: run_circuit(dynamic_circuit(103, 7), 400, seed=33),
     "954a3e8d348f621f076e867c8f7998822d6255acfaa7f818cb1aec7f78917b3c"),
]

SAMPLE_PATTERN_DIGEST = "84cd35502380005902d9467643a5ee5c0ad9dc7bb5f76b678aaa0731872cb00b"
RUN_PATTERN_DIGEST = "c2fd8152f9c755d3e1b5cae3c504a86661432f95173d97a7a19451ad06c8e04a"

EXACT_PROBABILITIES = {
    "0000": 0.10951046706411427, "0001": 0.11137345758290865,
    "0010": 0.06298158585357538, "0011": 0.06484457637236982,
    "0100": 0.14883114193662395, "0101": 0.1506941324554184,
    "0110": 0.04137089851796185, "0111": 0.04323388903675638,
    "1000": 0.0393305704392776, "1001": 0.04119356095807195,
    "1010": 0.022368277912302538, "1011": 0.0242312684310969,
    "1100": 0.05366508208436971, "1101": 0.05552807260316407,
    "1110": 0.014490014116597064, "1111": 0.01635300463539141,
}

# ---- golden values of the adaptive pattern, taken before the one walker -----

ADAPTIVE_SAMPLE_DIGEST = "a6c7615352c49403cf1f04c5fc8440acb2d90d35ff17a4e777b4b982ae912563"
ADAPTIVE_RUN_DIGEST = "5af83996b543330e17916c5d201b66afb4c86db356ab8551af5ddd38b6c68145"

ADAPTIVE_PROBABILITIES = {
    "00000": 0.08025583212144126, "00001": 0.009270131436090677,
    "00010": 0.09854887276970403, "00011": 0.003533999106872592,
    "00100": 0.07786421575103819, "00101": 0.02421865612553878,
    "00110": 0.08360034808025557, "00111": 0.005925615477275363,
    "01000": 0.07995056046880843, "01001": 0.00957540308872335,
    "01010": 0.09824360111707114, "01011": 0.0038392707595052682,
    "01100": 0.07755894409840532, "01101": 0.024523927778171455,
    "01110": 0.08329507642762277, "01111": 0.0062308871299080444,
    "10000": 0.02694348500669446, "10001": 0.008530551435774697,
    "10010": 0.008650444358430846, "10011": 0.014266683764992369,
    "10100": 0.018022900519706286, "10101": 0.004894227603717289,
    "10110": 0.012286768190488082, "10111": 0.023187268251980146,
    "11000": 0.026638213354061642, "11001": 0.008835823088407328,
    "11010": 0.008345172705798102, "11011": 0.014571955417625005,
    "11100": 0.017717628867073506, "11101": 0.005199499256349944,
    "11110": 0.011981496537855353, "11111": 0.023492539904612718,
}


@pytest.mark.parametrize("sample,digest", [(s, d) for _n, s, d in GOLDEN_HISTOGRAMS],
                         ids=[n for n, _s, _d in GOLDEN_HISTOGRAMS])
def test_run_circuit_histograms_match_golden_digests(sample, digest):
    assert _hist_digest(sample()) == digest


def test_dynamic_inputs_carry_conditioned_gates():
    for seed, width in ((101, 5), (102, 6), (103, 7)):
        assert any(inst.cond is not None for inst in dynamic_circuit(seed, width))


def test_sample_pattern_counts_match_golden_digest():
    counts = sample_pattern(*xy_chain(12, 44), 20_000, np.random.default_rng(45))
    assert _hist_digest(counts) == SAMPLE_PATTERN_DIGEST


def test_run_pattern_outcomes_match_golden_digest():
    graph, order, specs = xy_chain(12, 44)
    rng = np.random.default_rng(46)
    runs = [run_pattern(graph, order, specs, rng) for _ in range(200)]
    assert _digest([[shot[v] for v in order] for shot in runs]) == RUN_PATTERN_DIGEST


def test_exact_state_probabilities_match_golden_values():
    probs = {k: p for k, (p, _s) in exact_state(exact_circuit()).items()}
    assert probs == pytest.approx(EXACT_PROBABILITIES, abs=1e-12)


def test_adaptive_pattern_oracle_matches_golden_values():
    graph, order, specs = adaptive_pattern()
    assert dense_oracle(graph, specs, order) == pytest.approx(ADAPTIVE_PROBABILITIES,
                                                              abs=1e-12)


def test_adaptive_pattern_sample_counts_match_golden_digest():
    counts = sample_pattern(*adaptive_pattern(), 20_000, np.random.default_rng(61))
    assert _hist_digest(counts) == ADAPTIVE_SAMPLE_DIGEST


def test_adaptive_pattern_run_outcomes_match_golden_digest():
    graph, order, specs = adaptive_pattern()
    rng = np.random.default_rng(62)
    runs = [run_pattern(graph, order, specs, rng) for _ in range(300)]
    assert _digest([[shot[v] for v in order] for shot in runs]) == ADAPTIVE_RUN_DIGEST
