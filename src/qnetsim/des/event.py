"""Events: scheduled calls of a handler.

Simulation time is a non-negative integer number of picoseconds.  The
environment runs events in (time, priority, seq) order: lower priority
values are more urgent, and seq is a global insertion counter that makes
ties deterministic.
"""

from __future__ import annotations

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

    def cancel(self):
        """Drop the event before it runs; after it has run, warn and do nothing."""
        if self.executed:
            warnings.warn(f"cancelling already-executed event {self!r}; no-op")
            return
        self.cancelled = True

    def __repr__(self):
        return (f"Event(t={self.time}, prio={self.priority}, seq={self.seq}, "
                f"handler={self.handler_name})")

