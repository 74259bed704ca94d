"""Entities: the main objects of the simulated system.

Every entity is attached to exactly one environment, which schedules
its events.  Environment initialization runs each attached entity's
`_init` hook once, in the order the entities were attached.
"""

from __future__ import annotations


class Entity:
    def __init__(self, name, env=None):
        if env is None:
            raise RuntimeError(f"entity {name!r} needs a simulation environment")
        self.name = name
        self.env = env
        self.env.attach(self)

    def install(self, component):
        """Check that `component` shares this entity's environment."""
        if component.env is not self.env:
            raise ValueError(
                f"component {component.name} belongs to a different environment")

    def _init(self):
        """Hook for subclasses; runs once at environment initialization."""

    @property
    def rng(self):
        if not hasattr(self, "_rng"):
            self._rng = self.env.rng_for(self.name)
        return self._rng

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"
