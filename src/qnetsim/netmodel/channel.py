"""Classical and quantum channels.

All channels are unidirectional (one sender, one receiver).  Signals
propagate at 2e8 m/s, i.e. 5000 ns per km, in fiber and free space
alike.  A quantum payload survives a fiber of length L km with
probability 10^(-alpha*L/10); the default attenuation is 0.2 dB/km.
Lost photons vanish silently; detecting loss is the protocols' job.
"""

from __future__ import annotations

import numpy as np

from ..des import Entity, Event

FIBER_LOSS_DB_PER_KM = 0.2
PS_PER_KM = 5_000_000  # 1 km / (2e8 m/s) in picoseconds


def classical_delay_ps(distance_km: float) -> int:
    return round(distance_km * PS_PER_KM)


def survival_probability(loss_db: float) -> float:
    return 10.0 ** (-loss_db / 10.0)


class Channel(Entity):
    def __init__(self, name, sender=None, receiver=None, distance_km=0.0, env=None):
        super().__init__(name, env)
        if distance_km < 0:
            raise ValueError("channel distance must be non-negative")
        self.sender = sender
        self.receiver = receiver
        self.distance_km = distance_km
        self.delay_ps = classical_delay_ps(distance_km)

    def _check_attached(self, src):
        if self.sender is None or self.receiver is None:
            raise RuntimeError(f"channel {self.name!r} is not attached to nodes")
        if src is not self.sender:
            raise ValueError(
                f"{getattr(src, 'name', src)!r} is not the sender of channel {self.name!r}")


class ClassicalFiberChannel(Channel):
    def transmit(self, msg, src=None, priority=0):
        """Schedule delivery at now + propagation delay (FIFO)."""
        self._check_attached(src if src is not None else self.sender)
        env = self.env
        env.schedule(Event(env.now + self.delay_ps, self.receiver,
                           "receive_classical_msg", (msg, self.sender), None,
                           priority))


class QuantumFiberChannel(Channel):
    def __init__(self, name, sender=None, receiver=None, distance_km=0.0,
                 loss_db_per_km=FIBER_LOSS_DB_PER_KM, env=None):
        super().__init__(name, sender, receiver, distance_km, env)
        self.loss_db_per_km = loss_db_per_km

    @property
    def loss_db(self) -> float:
        return self.loss_db_per_km * self.distance_km

    @property
    def survival_probability(self) -> float:
        return survival_probability(self.loss_db)

    def transmit(self, qubit, src=None):
        """Deliver the qubit with the survival probability, else drop it."""
        self._check_attached(src if src is not None else self.sender)
        if self.rng.random() < self.survival_probability:
            self.env.schedule_after(self.delay_ps, self.receiver,
                                    "receive_quantum_msg", qubit, self.sender)


class FreeSpaceChannel(Channel):
    """Free-space channel whose loss follows a (distance km -> dB) table.

    Distance may be supplied per transmission (e.g. from a satellite
    mobility model); the table is interpolated linearly.
    """

    def __init__(self, name, sender=None, receiver=None, loss_table=None, env=None):
        super().__init__(name, sender, receiver, 0.0, env)
        table = loss_table or [(0.0, 0.0), (1000.0, 30.0)]
        self._distances = np.array([d for d, _ in table], dtype=float)
        self._losses = np.array([l for _, l in table], dtype=float)

    def loss_db(self, distance_km: float) -> float:
        return float(np.interp(distance_km, self._distances, self._losses))

    def survival_probability(self, distance_km: float) -> float:
        return survival_probability(self.loss_db(distance_km))

    def transmit(self, qubit, distance_km, src=None):
        self._check_attached(src if src is not None else self.sender)
        if self.rng.random() < self.survival_probability(distance_km):
            delay = classical_delay_ps(distance_km)
            self.env.schedule_after(delay, self.receiver,
                                    "receive_quantum_msg", qubit, self.sender)
