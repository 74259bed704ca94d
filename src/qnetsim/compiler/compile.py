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


def _compile_local(op: LocalOp, reg: LocalRegister, circuit: Circuit, knowledge):
    """Compile a local operation on one address, or on two with the control
    first; its fresh units take the next global registers in that order."""
    if op.is_double:
        addr0, addr1 = op.addr
        if addr0 == addr1:
            raise CompileError(
                f"two-qubit operation needs distinct addresses, got {op.addr}")
        units = (reg[addr0], reg[addr1])
    else:
        units = (reg[op.addr],)
    fresh = circuit.width
    regs = ()
    for unit in units:
        if unit.qubit is None:
            unit.qubit = fresh
            fresh += 1
        elif unit.outcome is not None:
            raise CompileError(
                f"node {op.node!r} operates on measured unit at address {unit.address}")
        regs += (unit.qubit,)
    cond = op.cond
    if cond is not None:
        known, ref = knowledge[op.node], tuple(cond)
        if ref not in known:
            raise CompileError(
                f"node {op.node!r} conditions on unmeasured or unknown outcome {ref}")
        cond = known[ref]
    circuit.append(CircuitInstruction(op.name, regs, op.params, cond))
    if op.name == "measure":
        unit.outcome = unit.qubit
        knowledge[op.node][op.node, op.addr] = unit.qubit


def _compile_transmit(op: Transmit, registers):
    """Move qubit ownership from src to dst; the circuit is untouched."""
    src_reg, dst_reg = registers[op.src], registers[op.dst]
    unit = src_reg[op.addr]
    if unit.qubit is None:
        raise CompileError(
            f"node {op.src!r} transmits empty unit at address {op.addr}")
    qmsg = unit.qubit
    unit.reset()
    unit.outcome = None
    dst_unit = dst_reg.first_empty()
    dst_unit.qubit = qmsg
    dst_unit.identifier = op.src


def _compile_classical(op: ClassicalSend, knowledge):
    known_src, known_dst = knowledge[op.src], knowledge[op.dst]
    ref = tuple(op.ref)
    if ref not in known_src:
        raise CompileError(
            f"node {op.src!r} sends outcome {ref} it does not know")
    known_dst[ref] = known_src[ref]


def compile_protocol(instructions, nodes, register_size=DEFAULT_REGISTER_SIZE) -> Circuit:
    """Fold a causally ordered protocol script into one dynamic circuit."""
    registers = {node: LocalRegister(node, register_size) for node in nodes}
    knowledge = {node: {} for node in registers}  # node -> {(node, addr): register}
    circuit = Circuit()
    for index, op in enumerate(instructions):
        try:
            if isinstance(op, LocalOp):
                _compile_local(op, registers[op.node], circuit, knowledge)
            elif isinstance(op, Transmit):
                _compile_transmit(op, registers)
            elif isinstance(op, ClassicalSend):
                _compile_classical(op, knowledge)
            else:
                raise CompileError(f"not a protocol instruction: {op!r}")
        except KeyError as err:  # each kind looks its nodes up before using them
            raise CompileError(f"unknown node {err.args[0]!r}", index=index) from None
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
