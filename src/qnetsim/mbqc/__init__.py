from .pattern import ResourceGraph, MeasurementSpec, load_pattern, dump_pattern
from .engine import run_pattern, max_active_width, dense_oracle, sample_pattern

__all__ = [
    "ResourceGraph",
    "MeasurementSpec",
    "run_pattern",
    "max_active_width",
    "dense_oracle",
    "sample_pattern",
    "load_pattern",
    "dump_pattern",
]
