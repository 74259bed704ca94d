"""Teleportation and entanglement swapping on a shared qubit store.

`QubitManager` keeps one joint statevector for all live qubits of a
scenario; nodes hold opaque qubit ids, and transmitting a qubit moves
the id, not the state.  Teleportation runs event-driven over the network
channels; entanglement swapping is a local Bell measurement with
heralded corrections.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..backend.gates import gate_matrix
from ..backend.statevector import StateVector
from ..des import Entity
from ..netmodel.channel import ClassicalFiberChannel, QuantumFiberChannel


class QubitManager:
    """Joint statevector over dynamically allocated qubits."""

    def __init__(self, rng=None):
        self.state = StateVector(0)
        self.qubits = []  # live qubit ids; a qubit's register is its index
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._ids = itertools.count()

    def new_qubit(self):
        qid = next(self._ids)
        self.state.append_qubit()
        self.qubits.append(qid)
        return qid

    def apply(self, gate, qubits, params=None):
        regs = [self.qubits.index(q) for q in qubits]
        self.state.apply(gate_matrix(gate, params), regs)

    def measure(self, qubit) -> int:
        pos = self.qubits.index(qubit)
        del self.qubits[pos]
        bit = int(self.rng.random() < self.state.prob_one(pos))
        self.state.project(pos, bit, drop=True)
        return bit

    def qubit_state(self, qubits) -> StateVector:
        """Reduced state of the given qubits; they must be unentangled
        with everything else (all other qubits measured)."""
        if set(qubits) != set(self.qubits):
            raise ValueError("remaining qubits do not match the request")
        # permute so that qubits appear in the requested order
        psi = self.state.amps.reshape((2,) * self.state.n)
        order = [self.qubits.index(q) for q in qubits]  # register of each requested qubit
        axes = [self.state.n - 1 - r for r in reversed(order)]
        psi = np.transpose(psi, axes)
        return StateVector(amplitudes=psi.reshape(-1))


def bell_pair(manager: QubitManager):
    """Create |Phi+> = (|00> + |11>)/sqrt(2); returns the two qubit ids."""
    a = manager.new_qubit()
    b = manager.new_qubit()
    manager.apply("h", [a])
    manager.apply("cnot", [a, b])
    return a, b


def bell_measure(manager: QubitManager, q0, q1):
    """Bell-basis measurement; returns (z_bit, x_bit)."""
    manager.apply("cnot", [q0, q1])
    manager.apply("h", [q0])
    return manager.measure(q0), manager.measure(q1)


# ---- entanglement swapping ----------------------------------------------

def entanglement_swap(manager: QubitManager, left_pair, right_pair,
                      correct=True):
    """Swap at a middle node holding left_pair[1] and right_pair[0].

    Bell-measures the two middle qubits; with `correct`, applies the
    heralded X/Z corrections so the outer pair ends in |Phi+>.
    Returns (outer_left, outer_right, (m_z, m_x)).
    """
    outer_left, mid_left = left_pair
    mid_right, outer_right = right_pair
    m_z, m_x = bell_measure(manager, mid_left, mid_right)
    if correct:
        if m_x:
            manager.apply("x", [outer_right])
        if m_z:
            manager.apply("z", [outer_right])
    return outer_left, outer_right, (m_z, m_x)


# ---- event-driven teleportation ------------------------------------------

@dataclass
class TeleportResult:
    completed: bool = False
    stalled: bool = False
    corrections: tuple | None = None
    bob_qubit: int | None = None
    manager: QubitManager | None = None

    def bob_state(self) -> StateVector:
        return self.manager.qubit_state([self.bob_qubit])


class _TeleportDriver(Entity):
    """Runs the three-party teleportation over the network channels."""

    def __init__(self, name, charlie, alice, bob, input_prep, manager,
                 timeout_ps=None, env=None):
        super().__init__(name, env)
        self.charlie, self.alice, self.bob = charlie, alice, bob
        self.input_prep = input_prep
        self.manager = manager
        self.timeout_ps = timeout_ps
        self.result = TeleportResult(manager=manager)
        self._bob_qubit = None
        self._bits = {}
        # intercept deliveries on the three nodes
        for node, action in ((alice, self.alice_receives_qubit),
                             (bob, self.bob_receives_qubit)):
            node.receive_quantum_msg = lambda q, src, act=action: act(q)
        bob.receive_classical_msg = lambda msg, src: self.bob_receives_bits(msg)

    def _init(self):
        self.env.schedule_after(0, self, "charlie_distributes")
        if self.timeout_ps is not None:
            self.env.schedule_after(self.timeout_ps, self, "check_timeout")

    def charlie_distributes(self):
        q_a, q_b = bell_pair(self.manager)
        self.charlie.channel_to(self.alice, QuantumFiberChannel).transmit(
            q_a, src=self.charlie)
        self.charlie.channel_to(self.bob, QuantumFiberChannel).transmit(
            q_b, src=self.charlie)

    def alice_receives_qubit(self, qubit):
        psi = self.manager.new_qubit()
        self.input_prep(self.manager, psi)
        z_bit, x_bit = bell_measure(self.manager, psi, qubit)
        self.alice.channel_to(self.bob, ClassicalFiberChannel).transmit(
            {"z": z_bit, "x": x_bit}, src=self.alice)

    def bob_receives_qubit(self, qubit):
        self._bob_qubit = qubit
        self._try_finish()

    def bob_receives_bits(self, msg):
        self._bits = msg
        self._try_finish()

    def _try_finish(self):
        if self._bob_qubit is None or not self._bits:
            return
        if self._bits["x"]:
            self.manager.apply("x", [self._bob_qubit])
        if self._bits["z"]:
            self.manager.apply("z", [self._bob_qubit])
        self.result.completed = True
        self.result.corrections = (self._bits["z"], self._bits["x"])
        self.result.bob_qubit = self._bob_qubit

    def check_timeout(self):
        if not self.result.completed:
            self.result.stalled = True
            import logging  # on first use: importing the package does not load logging
            logging.getLogger(__name__).warning(
                "%s: teleportation stalled at %d ps: timeout reached", self.name, self.env.now)


def teleport(charlie, alice, bob, input_prep, timeout_ps=None,
             manager=None) -> TeleportResult:
    """Teleport Alice's prepared state to Bob via Charlie's Bell pair.

    `input_prep(manager, qubit)` prepares the state to send on a fresh
    qubit.  Requires quantum channels Charlie->Alice and Charlie->Bob and
    a classical channel Alice->Bob; the caller initializes and runs the
    environment.  Returns the live result object.
    """
    env = charlie.env
    manager = manager if manager is not None else QubitManager(
        rng=env.rng_for("teleport-qubits"))
    driver = _TeleportDriver(f"teleport:{alice.name}->{bob.name}", charlie,
                             alice, bob, input_prep, manager,
                             timeout_ps=timeout_ps, env=env)
    return driver.result
