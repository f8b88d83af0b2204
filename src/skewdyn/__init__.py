"""Numerical toolkit for polynomial skew products with an attracting invariant line."""

from .core import (
    OrbitTrace,
    SkewProductMap,
    build_map,
    find_attracting_cycles,
    iterate,
    map_from_config,
    map_to_config,
    trace_to_csv,
)
from .errors import SkewdynError
from .fiber import Cycle, FiberMap

__all__ = [
    "OrbitTrace",
    "SkewProductMap",
    "build_map",
    "find_attracting_cycles",
    "iterate",
    "map_from_config",
    "map_to_config",
    "trace_to_csv",
    "SkewdynError",
    "Cycle",
    "FiberMap",
]
