"""Numerical toolkit for polynomial skew products with an attracting invariant line."""

import os

# Everything here computes in one thread, but when numpy loads, OpenBLAS
# starts a worker thread for every further core, and on a 2-core host that
# worker spins for about 0.13 s of CPU before it sleeps.  The only BLAS calls
# (np.roots, np.polyfit) are on tiny matrices, so ask for one BLAS thread
# before the first numpy import.  A value the caller has set is kept; one
# set here is removed once numpy has loaded, so no later child inherits it.
_caller_set = "OPENBLAS_NUM_THREADS" in os.environ
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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

if not _caller_set:  # OpenBLAS reads it only when it loads
    del os.environ["OPENBLAS_NUM_THREADS"]

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
