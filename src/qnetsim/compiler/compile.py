"""Lowering protocol scripts to quantum circuits.

The first stage folds local operations, qubit transmissions and
classical messages into one dynamic circuit: a transmitted qubit keeps
its global register, only the ownership recorded in the local registers
moves.  The second stage defers measurements, replacing every
classically conditioned gate with its quantum-controlled counterpart and
moving all measurements to the tail, yielding a standard circuit.
"""

from __future__ import annotations

from ..backend.circuit import Circuit, CircuitInstruction
from ..backend.gates import controlled_name, gate_arity
from .register import LocalRegister
from .script import ClassicalSend, LocalOp, Transmit

DEFAULT_REGISTER_SIZE = 8


class CompileError(ValueError):
    def __init__(self, message, index=None):
        super().__init__(message if index is None
                         else f"instruction {index}: {message}")
        self.index = index


def _resolve_cond(op: LocalOp, knowledge):
    if op.cond is None:
        return None
    known = knowledge.setdefault(op.node, {})
    ref = tuple(op.cond)
    if ref not in known:
        raise CompileError(
            f"node {op.node!r} conditions on unmeasured or unknown outcome {ref}")
    return known[ref]


def _check_unit_operable(unit, op):
    if unit.outcome is not None and unit.qubit is not None:
        raise CompileError(
            f"node {op.node!r} operates on measured unit at address {unit.address}")


def compile_single(op: LocalOp, reg: LocalRegister, circuit: Circuit,
                   knowledge=None) -> Circuit:
    """Compile a one-address local operation (measurement included)."""
    knowledge = knowledge if knowledge is not None else {}
    unit = reg[op.addr]
    _check_unit_operable(unit, op)
    if unit.qubit is None:
        unit.qubit = circuit.width
    cond = _resolve_cond(op, knowledge)
    circuit.append(CircuitInstruction(op.name, (unit.qubit,), op.params, cond))
    if op.name == "measure":
        unit.outcome = unit.qubit
        knowledge.setdefault(op.node, {})[(op.node, op.addr)] = unit.qubit
    return circuit


def compile_double(op: LocalOp, reg: LocalRegister, circuit: Circuit,
                   knowledge=None) -> Circuit:
    """Compile a two-address local operation; control address first."""
    knowledge = knowledge if knowledge is not None else {}
    addr0, addr1 = op.addr
    if addr0 == addr1:
        raise CompileError(f"two-qubit operation needs distinct addresses, got {op.addr}")
    unit0, unit1 = reg[addr0], reg[addr1]
    _check_unit_operable(unit0, op)
    _check_unit_operable(unit1, op)
    fresh = circuit.width
    if unit0.qubit is None:
        unit0.qubit = fresh
        fresh += 1
    if unit1.qubit is None:
        unit1.qubit = fresh
    cond = _resolve_cond(op, knowledge)
    circuit.append(CircuitInstruction(op.name, (unit0.qubit, unit1.qubit),
                                      op.params, cond))
    return circuit


def compile_transmit(op: Transmit, registers: dict) -> dict:
    """Move qubit ownership from src to dst; the circuit is untouched."""
    src_reg = registers[op.src]
    unit = src_reg[op.addr]
    if unit.qubit is None:
        raise CompileError(
            f"node {op.src!r} transmits empty unit at address {op.addr}")
    qmsg = unit.qubit
    unit.reset()
    unit.outcome = None
    dst_unit = registers[op.dst].first_empty()
    dst_unit.qubit = qmsg
    dst_unit.identifier = op.src
    return registers


def _compile_classical(op: ClassicalSend, knowledge):
    known_src = knowledge.setdefault(op.src, {})
    ref = tuple(op.ref)
    if ref not in known_src:
        raise CompileError(
            f"node {op.src!r} sends outcome {ref} it does not know")
    knowledge.setdefault(op.dst, {})[ref] = known_src[ref]


def compile_protocol(instructions, nodes, register_size=DEFAULT_REGISTER_SIZE) -> Circuit:
    """Fold a causally ordered protocol script into one dynamic circuit."""
    registers = {node: LocalRegister(node, register_size) for node in nodes}
    knowledge = {}
    circuit = Circuit()
    for index, op in enumerate(instructions):
        try:
            if isinstance(op, LocalOp):
                if op.node not in registers:
                    raise CompileError(f"unknown node {op.node!r}")
                if op.is_double:
                    compile_double(op, registers[op.node], circuit, knowledge)
                else:
                    compile_single(op, registers[op.node], circuit, knowledge)
            elif isinstance(op, Transmit):
                if op.src not in registers or op.dst not in registers:
                    raise CompileError(f"unknown node in transmit {op!r}")
                compile_transmit(op, registers)
            elif isinstance(op, ClassicalSend):
                _compile_classical(op, knowledge)
            else:
                raise CompileError(f"not a protocol instruction: {op!r}")
        except CompileError as err:
            if err.index is None:
                raise CompileError(str(err), index=index) from None
            raise
        except ValueError as err:
            raise CompileError(str(err), index=index) from None
    return circuit.validate()


def defer_measurements(circ: Circuit) -> Circuit:
    """Produce the standard-circuit form via the deferred measurement rule.

    Conditioned [name, reg, par, cond] becomes [controlled-name,
    [cond, reg], par]; measurements move to the tail in their original
    relative order; everything else keeps its position.
    """
    circ.validate()
    body = []
    measurements = []
    for inst in circ:
        if inst.name == "measure":
            measurements.append(inst)
        elif inst.cond is not None:
            if gate_arity(inst.name) != 1:
                raise ValueError(
                    f"cannot defer conditioned two-qubit gate {inst.name!r}")
            body.append(CircuitInstruction(controlled_name(inst.name),
                                           (inst.cond,) + inst.regs, inst.params))
        else:
            body.append(inst)
    return Circuit(body + measurements)
