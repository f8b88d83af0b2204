"""Shared test settings and helpers.

One hypothesis profile for every property test: no deadline (the kernels
under test take variable time), derandomized draws so a run repeats
exactly, and no example database left behind.  Tests set only their own
max_examples and health-check exemptions.

assert_bitwise compares arrays byte for byte, so NaN payloads and signed
zeros count; test modules import it with `from conftest import
assert_bitwise`.
"""

import numpy as np
from hypothesis import settings

settings.register_profile("skewdyn", deadline=None, derandomize=True, database=None)
settings.load_profile("skewdyn")


def assert_bitwise(actual, expected, what: str = "") -> None:
    """Equal dtype, shape and bytes."""
    a, b = np.asarray(actual), np.asarray(expected)
    label = f"{what}: " if what else ""
    assert a.dtype == b.dtype, f"{label}dtype {a.dtype} != {b.dtype}"
    assert a.shape == b.shape, f"{label}shape {a.shape} != {b.shape}"
    if a.tobytes() != b.tobytes():
        first = next(i for i, (x, y) in enumerate(zip(a.ravel(), b.ravel()))
                     if x.tobytes() != y.tobytes())
        raise AssertionError(
            f"{label}bytes differ, first at flat index {first}: "
            f"{a.ravel()[first]!r} != {b.ravel()[first]!r}")
