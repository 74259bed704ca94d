"""Entities: the main objects of the simulated system.

Every entity is attached to exactly one environment and carries a
scheduler bound to it.  `install` adds sub-components; environment
initialization cascades `init` through the component tree exactly once.
"""

from __future__ import annotations

from .env import get_default_env
from .event import Event


class Scheduler:
    """Event-scheduling capability bound to one environment.

    Can be embedded in any object (entity or protocol) that needs to
    schedule events.
    """

    def __init__(self, env):
        self.env = env

    def schedule_at(self, time, owner, action, *args, priority=0, **kwargs):
        return self.env.schedule(Event(time, owner, action, args, kwargs, priority))

    def schedule_after(self, delay, owner, action, *args, priority=0, **kwargs):
        env = self.env
        return env.schedule(Event(env.now + delay, owner, action, args, kwargs, priority))


class Entity:
    def __init__(self, name, env=None):
        self.name = name
        self.env = env if env is not None else get_default_env()
        self.components = []
        self.owner = None
        self.scheduler = Scheduler(self.env)
        self._initialized = False
        self.env.attach(self)

    def install(self, component):
        """Add one sub-entity or a list of them."""
        if isinstance(component, (list, tuple)):
            for c in component:
                self.install(c)
            return
        if component.env is not self.env:
            raise ValueError(
                f"component {component.name} belongs to a different environment")
        component.owner = self
        self.components.append(component)

    def init(self):
        if self._initialized:
            return
        self._initialized = True
        self._init()
        for component in self.components:
            component.init()

    def _init(self):
        """Hook for subclasses; runs once at environment initialization."""

    @property
    def rng(self):
        if not hasattr(self, "_rng"):
            self._rng = self.env.rng_for(self.name)
        return self._rng

    def log(self, level, message):
        self.env.log(level, self, message)

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"
