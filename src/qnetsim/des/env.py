"""The discrete-event simulation environment.

A `SimEnv` owns the virtual timeline (integer picoseconds), the future
event list and the master random seed.  Entities attach to an
environment at creation.  The future event list `fel` is a heap of
`(time, priority, seq, event)` tuples; seq is unique, so the heap
compares plain integers and never reaches the events.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush

import numpy as np

from .event import Event


class EnvState(Enum):
    CREATED = "created"
    INITIALIZED = "initialized"
    RUNNING = "running"
    FINISHED = "finished"


# read on every schedule; a lookup through the Enum class costs several times more
_CREATED, _FINISHED = EnvState.CREATED, EnvState.FINISHED


@dataclass
class SimReport:
    events_executed: int
    final_time: int


class SimEnv:
    """Simulation environment with a built-in timeline."""

    def __init__(self, name, seed=0):
        self.name = name
        self.now = 0
        self.fel = []  # heap of (time, priority, seq, event)
        self.state = EnvState.CREATED
        self.seed = seed
        self.entities = []
        self.trace = []  # (time, priority, seq, handler_name) per executed event
        self._seq = itertools.count()

    # ---- random streams -------------------------------------------------
    def rng_for(self, stream_name: str) -> np.random.Generator:
        """Derive a per-entity random stream from (seed, stream name).

        Streams are independent of entity creation order, so adding an
        entity does not perturb the randomness seen by the others.
        """
        digest = hashlib.sha256(stream_name.encode()).digest()
        salt = int.from_bytes(digest[:8], "big")
        return np.random.default_rng(np.random.SeedSequence([self.seed, salt]))

    # ---- scheduling -----------------------------------------------------
    def schedule(self, event: Event) -> Event:
        """Put `event` on the timeline and return it (`event.cancel()` drops
        it); an executed event may be scheduled again and gets the next seq."""
        if self.state is _CREATED:
            raise RuntimeError("cannot schedule events before the environment is initialized")
        if self.state is _FINISHED:
            raise RuntimeError("cannot schedule events on a finished environment")
        if event.time < self.now:
            raise ValueError(
                f"cannot schedule into the past: event time {event.time} < now {self.now}")
        if event.seq is not None and not event.executed:
            raise ValueError(f"{event!r} is already scheduled")
        event.executed = False
        event.seq = seq = next(self._seq)
        heappush(self.fel, (event.time, event.priority, seq, event))
        return event

    def schedule_at(self, time, owner, action, *args, priority=0):
        return self.schedule(Event(time, owner, action, args, priority))

    def schedule_after(self, delay, owner, action, *args, priority=0):
        return self.schedule(Event(self.now + delay, owner, action, args, priority))

    # ---- lifecycle ------------------------------------------------------
    def attach(self, entity):
        self.entities.append(entity)

    def init(self):
        if self.state is not EnvState.CREATED:
            raise RuntimeError(f"init is only legal from created state, not {self.state}")
        self.state = EnvState.INITIALIZED
        # snapshot: an entity that an `_init` hook creates gets no `_init` call
        for entity in list(self.entities):
            entity._init()

    def run(self, end_time=None) -> SimReport:
        """Execute the events due at or before `end_time` and finish.

        A bounded run ends at `end_time`: `now` becomes it, and later
        events stay queued.  A run without one ends at its last event."""
        if self.state is not EnvState.INITIALIZED:
            raise RuntimeError(f"run is only legal from initialized state, not {self.state}")
        if end_time is not None and end_time < self.now:
            raise ValueError(f"end time {end_time} precedes now {self.now}")
        self.state = EnvState.RUNNING
        heap, trace = self.fel, self.trace
        limit = float("inf") if end_time is None else end_time
        while heap:
            item = heappop(heap)
            time, priority, seq, event = item
            if time > limit:
                heappush(heap, item)  # not due yet: put it back
                break
            if event.cancelled:
                continue
            self.now = time
            trace.append((time, priority, seq, event.handler_name))
            # set before the call: the handler may schedule this event again
            event.executed = True
            getattr(event.owner, event.action)(*event.args)
        if end_time is not None:
            self.now = end_time
        self.state = EnvState.FINISHED
        # a run is the environment's only one, so its trace holds just this run
        return SimReport(events_executed=len(trace), final_time=self.now)
