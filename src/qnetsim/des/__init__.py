from .event import Event, FutureEventList
from .env import SimEnv, SimReport, EnvState
from .entity import Entity

__all__ = [
    "Event",
    "FutureEventList",
    "SimEnv",
    "SimReport",
    "EnvState",
    "Entity",
]
