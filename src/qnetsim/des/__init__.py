from .event import Event, FutureEventList
from .env import SimEnv, SimReport, EnvState, get_default_env, set_default_env, clear_default_env
from .entity import Entity, Scheduler

__all__ = [
    "Event",
    "FutureEventList",
    "SimEnv",
    "SimReport",
    "EnvState",
    "Entity",
    "Scheduler",
    "get_default_env",
    "set_default_env",
    "clear_default_env",
]
