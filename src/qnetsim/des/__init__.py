from .event import Event
from .env import SimEnv, SimReport, EnvState
from .entity import Entity

__all__ = [
    "Event",
    "SimEnv",
    "SimReport",
    "EnvState",
    "Entity",
]
