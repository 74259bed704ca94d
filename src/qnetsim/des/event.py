"""Events and the future event list.

Simulation time is a non-negative integer number of picoseconds.  Events
are totally ordered by (time, priority, seq): lower priority values are
more urgent, and seq is a global insertion counter that makes ties
deterministic.
"""

from __future__ import annotations

import heapq
import warnings


class Event:
    """A scheduled change of system status at a particular time.

    The handler is an owning object plus a named action: executing the
    event calls ``getattr(owner, action)(*args, **kwargs)``.  An event is
    in the future event list at most once; once executed, it may be
    scheduled again with a new ``time``, so a periodic loop reuses one.
    """

    __slots__ = ("time", "priority", "seq", "owner", "action", "args",
                 "kwargs", "cancelled", "executed", "handler_name")

    def __init__(self, time, owner, action, args=(), kwargs=None, priority=0):
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        self.time = int(time)
        self.priority = priority
        self.seq = None  # assigned by the environment at scheduling
        self.owner = owner
        self.action = action
        self.args = tuple(args)
        self.kwargs = dict(kwargs) if kwargs else {}
        self.cancelled = False
        self.executed = False
        owner_name = getattr(owner, "name", type(owner).__name__)
        self.handler_name = f"{owner_name}.{action}"

    @property
    def sort_key(self):
        return (self.time, self.priority, self.seq)

    def cancel(self):
        """Drop the event before it runs; after it has run, warn and do nothing."""
        if self.executed:
            warnings.warn(f"cancelling already-executed event {self!r}; no-op")
            return
        self.cancelled = True

    def __repr__(self):
        return (f"Event(t={self.time}, prio={self.priority}, seq={self.seq}, "
                f"handler={self.handler_name})")


class FutureEventList:
    """Heap of events ordered by (time, priority, seq).

    ``heap`` holds ``(time, priority, seq, event)`` tuples, so the heap
    compares plain integers and never calls back into Python; seq is
    unique, so no comparison ever reaches the event itself.
    """

    def __init__(self):
        self.heap = []

    def __len__(self):
        return len(self.heap)

    def push(self, event: Event):
        if event.seq is None:
            raise ValueError("event must be sequenced by the environment before push")
        heapq.heappush(self.heap, (event.time, event.priority, event.seq, event))

    def peek(self) -> Event:
        return self.heap[0][3]

    def pop(self) -> Event:
        return heapq.heappop(self.heap)[3]
