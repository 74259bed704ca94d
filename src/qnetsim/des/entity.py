"""Entities: the main objects of the simulated system.

Every entity is attached to exactly one environment, which schedules
its events.  `install` adds sub-components; environment initialization
cascades `init` through the component tree exactly once.
"""

from __future__ import annotations


class Entity:
    def __init__(self, name, env=None):
        if env is None:
            raise RuntimeError(f"entity {name!r} needs a simulation environment")
        self.name = name
        self.env = env
        self.components = []
        self.owner = None
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
