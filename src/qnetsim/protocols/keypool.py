"""Battery-like key pools between directly connected stations.

A pool holds up to V_m keys.  Delivering keys that drive the current
volume below the interruption threshold V_i switches the pool to
replenishing: it stops serving and generates keys until the recovery
threshold V_r is reached.  Defaults follow V_i = V_m / 4 and V_r = V_m.
"""

from __future__ import annotations

from collections import deque

import numpy as np

_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")  # bit bytes -> '0'/'1'
_BLOCK = 64  # keys drawn from the pool's random stream per call


class KeyPool:
    def __init__(self, v_max, key_length=32, v_interrupt=None, v_recover=None,
                 rng=None, name=""):
        if v_max <= 0:
            raise ValueError("pool capacity must be positive")
        self.name = name
        self.v_max = int(v_max)
        self.v_interrupt = int(v_interrupt) if v_interrupt is not None else self.v_max // 4
        self.v_recover = int(v_recover) if v_recover is not None else self.v_max
        if not (0 <= self.v_interrupt <= self.v_recover <= self.v_max):
            raise ValueError("thresholds must satisfy 0 <= V_i <= V_r <= V_m")
        self.key_length = key_length
        self.keys = deque()
        self.status = "serving"
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.generated = 0
        self.delivered = 0
        self._reservations = {}  # request id -> delivered keys, readable once more
        self._ahead = []  # keys drawn but not yet used, last one first
        self.on_room = None  # KeyClock.wake, called after a delivery from a full pool

    @property
    def v_current(self) -> int:
        return len(self.keys)

    def fill(self, count=None):
        for _ in range(self.v_max if count is None else count):
            self.add_key(self._new_key())
        return self

    def _new_key(self):
        """The next key of the pool's stream, drawn a block at a time: numpy
        takes one 32-bit word per 0/1 value and buffers nothing between
        calls, so a block holds the same keys as one draw per key."""
        if not self._ahead:
            n = self.key_length
            bits = self.rng.integers(0, 2, (_BLOCK, n))
            text = bits.astype(np.uint8).tobytes().translate(_BIT_CHARS).decode("ascii")
            self._ahead = [text[i * n:(i + 1) * n] for i in reversed(range(_BLOCK))]
        return self._ahead.pop()

    def add_key(self, key=None):
        keys = self.keys
        if len(keys) >= self.v_max:
            return False
        keys.append(key if key is not None else self._new_key())
        self.generated += 1
        if self.status == "replenishing" and len(keys) >= self.v_recover:
            self.status = "serving"
        return True

    def can_serve(self, count) -> bool:
        return self.status == "serving" and self.v_current >= count

    def deliver(self, count):
        """Pop `count` keys, or None as a backpressure signal.

        Dropping below V_i afterwards switches the pool to replenishing.
        A delivery from a full pool then calls `on_room`, if set: there
        the key network's one keygen clock, asleep while all of its pools
        are full, is woken (`KeyClock.wake`).
        """
        if count > self.v_max:
            raise ValueError(
                f"request for {count} keys exceeds pool capacity {self.v_max}")
        if not self.can_serve(count):
            return None
        was_full = len(self.keys) >= self.v_max
        keys = [self.keys.popleft() for _ in range(count)]
        self.delivered += count
        if self.v_current < self.v_interrupt:
            self.status = "replenishing"
        if was_full and self.on_room is not None:
            self.on_room()
        return keys

    def can_take_for(self, request_id, count) -> bool:
        """Whether take_for(request_id, count) would hand out keys now: the
        request holds a reservation here, or the pool can serve `count`."""
        return request_id in self._reservations or self.can_serve(count)

    def take_for(self, request_id, count):
        """Deliver keys once per request; the second endpoint of the
        segment reads the same keys and clears the reservation."""
        if request_id in self._reservations:
            return self._reservations.pop(request_id)
        keys = self.deliver(count)
        if keys is not None:
            self._reservations[request_id] = list(keys)
            return list(keys)
        return None

    def __repr__(self):
        return (f"KeyPool({self.name!r}, Vc={self.v_current}/{self.v_max}, "
                f"{self.status})")
