"""Shared test settings and helpers.

One hypothesis profile for every property test: no deadline (the kernels
under test take variable time), derandomized draws so a run repeats
exactly, and no example database left behind.  Tests set only their own
max_examples and health-check exemptions.

assert_bitwise compares arrays byte for byte, so NaN payloads and signed
zeros count; test modules import it with `from conftest import
assert_bitwise`.

The peak_mib fixture is the one tracemalloc harness of the memory tests.
"""

import importlib
import tracemalloc

import numpy as np
import pytest
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


@pytest.fixture
def peak_mib():
    """peak_mib(fn) calls fn() and returns its tracemalloc peak in MiB.
    skewdyn's layers are imported first, so module loading is not counted."""
    for layer in ("binding", "bounds", "fatou", "measure", "series"):
        importlib.import_module(f"skewdyn.{layer}")

    def measure(fn) -> float:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    return measure
