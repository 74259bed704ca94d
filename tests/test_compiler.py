"""Protocol-script compiler: allocation, transmission, deferral."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnetsim.backend import Circuit, exact_state, is_standard
from qnetsim.backend.simulator import branch_probabilities
from qnetsim.compiler import (ClassicalSend, CompileError, LocalOp,
                              LocalRegister, Transmit, compile_protocol,
                              defer_measurements, dump_script, load_script)


def teleport_script(theta):
    return [
        LocalOp("charlie", "h", 0),
        LocalOp("charlie", "cnot", (0, 1)),
        Transmit("charlie", "alice", 0),
        Transmit("charlie", "bob", 1),
        LocalOp("alice", "ry", 1, params=(theta,)),
        LocalOp("alice", "cnot", (1, 0)),
        LocalOp("alice", "h", 1),
        LocalOp("alice", "measure", 0),
        LocalOp("alice", "measure", 1),
        ClassicalSend("alice", "bob", ("alice", 0)),
        ClassicalSend("alice", "bob", ("alice", 1)),
        LocalOp("bob", "x", 0, cond=("alice", 0)),
        LocalOp("bob", "z", 0, cond=("alice", 1)),
    ]


NODES = ["charlie", "alice", "bob"]


# ---- register model -------------------------------------------------------

def test_local_register_units_start_empty():
    reg = LocalRegister("n", 4)
    assert reg[2].qubit is None
    assert reg[2].outcome is None
    assert reg[2].identifier == "n"
    assert reg.first_empty() is reg[0]


# ---- allocation -----------------------------------------------------------

def test_fresh_units_get_consecutive_global_registers():
    script = [LocalOp("a", "h", 0), LocalOp("a", "x", 3), LocalOp("b", "h", 0)]
    circ = compile_protocol(script, ["a", "b"])
    assert [inst.regs for inst in circ] == [(0,), (1,), (2,)]


def test_double_op_allocates_in_address_order():
    circ = compile_protocol([LocalOp("a", "cnot", (2, 0))], ["a"])
    assert circ.instructions[0].regs == (0, 1)  # control address first


def test_repeated_address_reuses_register():
    script = [LocalOp("a", "h", 0), LocalOp("a", "x", 0)]
    circ = compile_protocol(script, ["a"])
    assert [inst.regs for inst in circ] == [(0,), (0,)]


def test_measurement_records_outcome_and_blocks_reuse():
    script = [LocalOp("a", "h", 0), LocalOp("a", "measure", 0),
              LocalOp("a", "x", 0)]
    with pytest.raises(CompileError, match="instruction 2"):
        compile_protocol(script, ["a"])


# ---- transmission ---------------------------------------------------------

def test_transmit_moves_register_not_state():
    script = [LocalOp("a", "h", 0), Transmit("a", "b", 0),
              LocalOp("b", "x", 0)]
    circ = compile_protocol(script, ["a", "b"])
    # the qubit keeps global register 0 through the move
    assert [inst.regs for inst in circ] == [(0,), (0,)]


def test_transmit_empty_unit_fails():
    with pytest.raises(CompileError, match="instruction 0"):
        compile_protocol([Transmit("a", "b", 0)], ["a", "b"])


def test_no_cloning_source_unit_is_cleared():
    # after a transmit the source address is empty again and a new local
    # op on it allocates a fresh register
    script = [LocalOp("a", "h", 0), Transmit("a", "b", 0),
              LocalOp("a", "h", 0)]
    circ = compile_protocol(script, ["a", "b"])
    assert [inst.regs for inst in circ] == [(0,), (1,)]


def test_transmit_lands_in_smallest_empty_address():
    script = [LocalOp("b", "h", 0),  # occupies b's address 0
              LocalOp("a", "h", 0), Transmit("a", "b", 0),
              LocalOp("b", "x", 1)]  # received qubit sits at address 1
    circ = compile_protocol(script, ["a", "b"])
    assert circ.instructions[-1].regs == (1,)


# ---- classical knowledge --------------------------------------------------

def test_cond_requires_received_outcome():
    script = [LocalOp("a", "h", 0), LocalOp("a", "measure", 0),
              LocalOp("b", "x", 0, cond=("a", 0))]
    with pytest.raises(CompileError, match="instruction 2"):
        compile_protocol(script, ["a", "b"])


def test_classical_send_enables_remote_cond():
    script = [LocalOp("a", "h", 0), LocalOp("a", "measure", 0),
              ClassicalSend("a", "b", ("a", 0)),
              LocalOp("b", "x", 0, cond=("a", 0))]
    circ = compile_protocol(script, ["a", "b"])
    assert circ.instructions[-1].cond == 0


def test_classical_send_of_unknown_outcome_fails():
    with pytest.raises(CompileError, match="instruction 0"):
        compile_protocol([ClassicalSend("a", "b", ("a", 0))], ["a", "b"])


def test_local_cond_works_without_send():
    script = [LocalOp("a", "h", 0), LocalOp("a", "measure", 0),
              LocalOp("a", "x", 1, cond=("a", 0))]
    circ = compile_protocol(script, ["a"])
    assert circ.instructions[-1].cond == 0


# ---- whole-script properties ---------------------------------------------

def test_empty_script_compiles_to_empty_circuit():
    circ = compile_protocol([], [])
    assert len(circ.instructions) == 0
    assert circ.width == 0


def test_unknown_node_fails_with_index():
    with pytest.raises(CompileError, match="instruction 1"):
        compile_protocol([LocalOp("a", "h", 0), LocalOp("zz", "h", 0)], ["a"])


@pytest.mark.parametrize("last", [ClassicalSend("a", "zz", ("a", 0)),
                                  ClassicalSend("zz", "a", ("a", 0)),
                                  Transmit("a", "zz", 1),
                                  Transmit("zz", "a", 0)])
def test_every_instruction_kind_rejects_an_unknown_node(last):
    script = [LocalOp("a", "h", 0), LocalOp("a", "measure", 0), LocalOp("a", "h", 1),
              last]
    with pytest.raises(CompileError, match="instruction 3: unknown node 'zz'"):
        compile_protocol(script, ["a"])


# an address past the register, a negative one, and a transmit into a full register
BAD_REGISTER_SCRIPTS = [
    ([LocalOp("a", "h", 0), LocalOp("a", "h", 99)],
     "instruction 1: node 'a' has no register unit at address 99"),
    ([LocalOp("a", "h", 0), LocalOp("a", "cnot", (0, -1))],
     "instruction 1: node 'a' has no register unit at address -1"),
    ([LocalOp("b", "h", 0), *(LocalOp("a", "h", i) for i in range(8)), Transmit("b", "a", 0)],
     "instruction 9: local register of node 'a' is full"),
]


@pytest.mark.parametrize("script,message", BAD_REGISTER_SCRIPTS)
def test_register_faults_are_compile_errors_naming_the_instruction(script, message):
    with pytest.raises(CompileError, match=message):
        compile_protocol(script, ["a", "b"])


def test_teleport_compiles_to_three_registers():
    circ = compile_protocol(teleport_script(0.3), NODES)
    assert circ.width == 3
    assert sum(1 for i in circ if i.name == "measure") == 2
    assert sum(1 for i in circ if i.cond is not None) == 2


def test_teleport_fidelity_through_pipeline():
    theta = 2.1
    circ = defer_measurements(compile_protocol(teleport_script(theta), NODES))
    assert is_standard(circ)
    target = np.array([np.cos(theta / 2), np.sin(theta / 2)])
    for bits, (p, state) in exact_state(circ).items():
        b0, b2 = int(bits[0]), int(bits[1])  # measured registers 0 and 2
        psi = state.amps.reshape(2, 2, 2)  # axes: reg2, reg1, reg0
        bob = psi[b2, :, b0]
        bob = bob / np.linalg.norm(bob)
        assert abs(np.vdot(target, bob)) ** 2 == pytest.approx(1.0, abs=1e-12)


# ---- deferred measurement ------------------------------------------------

def test_defer_moves_measurements_to_tail_in_order():
    circ = (Circuit().add("h", 0).add("measure", 0)
            .add("h", 1).add("measure", 1).add("x", 2, cond=1))
    deferred = defer_measurements(circ)
    assert [i.name for i in deferred] == ["h", "h", "cnot", "measure", "measure"]
    assert [i.regs[0] for i in deferred if i.name == "measure"] == [0, 1]


def test_defer_replaces_cond_with_controlled_gate():
    circ = (Circuit().add("h", 0).add("measure", 0)
            .add("ry", 1, params=(0.4,), cond=0))
    deferred = defer_measurements(circ)
    cry = deferred.instructions[1]
    assert cry.name == "cry"
    assert cry.regs == (0, 1)
    assert cry.params == (0.4,)
    assert cry.cond is None


def _random_dynamic_circuit(rng, width=4, measures=2):
    """Random circuit with mid-circuit measurements and conditioning."""
    circ = Circuit()
    measured = []
    gates_1q = ["h", "x", "y", "z", "s", "t", "rx", "ry", "rz"]
    free = list(range(width))
    for _ in range(12):
        kind = rng.random()
        if kind < 0.25 and len(measured) < measures and len(free) > 1:
            q = int(rng.choice(free))
            circ.add("measure", q)
            free.remove(q)
            measured.append(q)
        elif kind < 0.6:
            name = gates_1q[int(rng.integers(len(gates_1q)))]
            q = int(rng.choice(free))
            params = ((float(rng.uniform(0, 2 * np.pi)),)
                      if name in ("rx", "ry", "rz") else None)
            # only gates with a controlled counterpart may be conditioned
            deferrable = name in ("x", "y", "z", "rx", "ry", "rz")
            cond = (int(rng.choice(measured))
                    if deferrable and measured and rng.random() < 0.5 else None)
            circ.add(name, q, params=params, cond=cond)
        elif len(free) >= 2:
            a, b = rng.choice(free, size=2, replace=False)
            circ.add("cnot", (int(a), int(b)))
    for q in free:
        circ.add("measure", q)
    return circ


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_defer_preserves_branch_distribution(seed):
    rng = np.random.default_rng(seed)
    circ = _random_dynamic_circuit(rng)
    before = branch_probabilities(circ)
    after = branch_probabilities(defer_measurements(circ))
    keys = set(before) | set(after)
    deviation = sum(abs(before.get(k, 0.0) - after.get(k, 0.0)) for k in keys)
    assert deviation < 1e-10


# ---- script serialization -------------------------------------------------

def test_script_json_round_trip():
    script = teleport_script(1.0)
    text = dump_script(script)
    assert load_script(text) == script


def test_script_rejects_unknown_kind():
    with pytest.raises(ValueError):
        load_script('[{"kind": "warp", "node": "a"}]')
