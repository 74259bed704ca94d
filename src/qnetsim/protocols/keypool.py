"""Battery-like key pools between directly connected stations.

A pool holds up to V_m keys.  Delivering keys that drive the current
volume below the interruption threshold V_i switches the pool to
replenishing: it stops serving and generates keys until the recovery
threshold V_r is reached.  Defaults follow V_i = V_m / 4 and V_r = V_m.

A pool counts its keys and stores none.  Its keygen clock (`clock`)
gives it one key per instant while it has room; before any read or take
the pool adds, in bulk, the keys of the instants that passed since it
was last settled: while the run goes on those before now, and once it
has finished those through its end time.  Keys get their values when
they are delivered: the k-th key delivered is the k-th draw of the
pool's random stream, as if each key had been drawn when it was added,
and keys that are never delivered are never drawn.  A key is an int of
`key_length` bits, the first drawn bit the most significant.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..des import EnvState

_BLOCK = 64  # keys drawn from the pool's random stream per call
_FINISHED = EnvState.FINISHED


def _whole(name, value, low):
    """`value` as an int, if it is a whole number >= `low`."""
    try:
        if int(value) == value and value >= low:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # not a finite number
        pass
    raise ValueError(f"{name} must be a whole number >= {low}, got {value!r}")


class KeyPool:
    def __init__(self, v_max, key_length=32, v_interrupt=None, v_recover=None,
                 rng=None, name=""):
        self.name = name
        self.v_max = _whole("v_max", v_max, 1)
        self.v_interrupt = (_whole("v_interrupt", v_interrupt, 0)
                            if v_interrupt is not None else self.v_max // 4)
        self.v_recover = (_whole("v_recover", v_recover, 0)
                          if v_recover is not None else self.v_max)
        if not (self.v_interrupt <= self.v_recover <= self.v_max):
            raise ValueError("thresholds must satisfy 0 <= V_i <= V_r <= V_m")
        self.key_length = _whole("key_length", key_length, 0)
        self.delivered = 0
        self.clock = None  # the KeyClock whose instants add keys, set by it
        self._volume = 0
        self._status = "serving"
        self._generated = 0
        self._settled = 0  # index of the last keygen instant counted
        # the random stream, or a callable that makes it at the first draw
        self._rng = rng if rng is not None else partial(np.random.default_rng, 0)
        self._reservations = {}  # request id -> delivered keys, readable once more
        self._ahead = []  # keys drawn but not yet delivered, in stream order

    # --- settled state ----------------------------------------------------
    def _settle(self):
        """Count the keys of the keygen instants after the last one counted
        that fit: those before now while the run goes on (the clock's walk
        counts now's own), and those through now once it has finished."""
        clock = self.clock
        if clock is not None:
            env = clock.env
            passed = env.now - clock.start_ps - (env.state is not _FINISHED)
            instant = passed // clock.interval_ps
            if instant > self._settled:
                self._add(instant - self._settled)
                self._settled = instant

    def _add(self, count):
        added = min(count, self.v_max - self._volume)
        if added > 0:
            self._volume += added
            self._generated += added
            if self._status == "replenishing" and self._volume >= self.v_recover:
                self._status = "serving"
        return added

    @property
    def v_current(self) -> int:
        self._settle()
        return self._volume

    @property
    def status(self) -> str:
        self._settle()
        return self._status

    @property
    def generated(self) -> int:
        self._settle()
        return self._generated

    def fill(self, count=None):
        """Add `count` keys, V_m if None, as many as fit."""
        self._settle()
        self._add(self.v_max if count is None else count)
        return self

    def add_key(self) -> bool:
        """Count the key of the instant after the last one counted, if it
        fits; the clock's walk calls this at each instant it runs."""
        self._settle()
        self._settled += 1
        return self._add(1) > 0

    # --- delivery ---------------------------------------------------------
    def _draw(self, count):
        """The next `count` keys of the pool's stream, drawn a block at a
        time: numpy takes one 32-bit word per 0/1 value and buffers nothing
        between calls, so a block holds the same keys as one draw per key."""
        ahead = self._ahead
        while len(ahead) < count:
            if callable(self._rng):
                self._rng = self._rng()
            bits = self._rng.integers(0, 2, (_BLOCK, self.key_length)).astype(np.uint8)
            data = np.packbits(bits, axis=1).tobytes()  # each key 0-padded to bytes
            width, pad = len(data) // _BLOCK, -self.key_length % 8
            ahead += [int.from_bytes(data[i * width:(i + 1) * width], "big") >> pad
                      for i in range(_BLOCK)]
        keys, self._ahead = ahead[:count], ahead[count:]
        return keys

    def can_serve(self, count) -> bool:
        self._settle()
        return self._status == "serving" and self._volume >= count

    def deliver(self, count):
        """The next `count` keys, or None as a backpressure signal.

        Dropping below V_i afterwards switches the pool to replenishing.
        """
        if count > self.v_max:
            raise ValueError(
                f"request for {count} keys exceeds pool capacity {self.v_max}")
        if not self.can_serve(count):
            return None
        self._volume -= count
        self.delivered += count
        if self._volume < self.v_interrupt:
            self._status = "replenishing"
        return self._draw(count)

    def can_take_for(self, request_id, count) -> bool:
        """Whether take_for(request_id, count) would hand out keys now: the
        request holds a reservation here, or the pool can serve `count`."""
        return request_id in self._reservations or self.can_serve(count)

    def first_instant(self, request_id, count):
        """The first keygen instant at which can_take_for(request_id, count)
        holds if nothing is taken first: the last one counted when it holds
        now, None when it never does."""
        self._settle()
        if request_id in self._reservations:
            return self._settled
        if count > self.v_max:
            return None
        need = count if self._status == "serving" else max(count, self.v_recover)
        return self._settled + max(0, need - self._volume)

    def take_for(self, request_id, count):
        """Deliver keys once per request; the second endpoint of the
        segment reads the same keys and clears the reservation."""
        if request_id in self._reservations:
            return self._reservations.pop(request_id)
        keys = self.deliver(count)
        if keys is not None:
            self._reservations[request_id] = list(keys)
        return keys

    def __repr__(self):
        return (f"KeyPool({self.name!r}, Vc={self.v_current}/{self.v_max}, "
                f"{self.status})")
