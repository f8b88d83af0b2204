"""Shared test settings and helpers.

One hypothesis profile for every property test: no deadline (the kernels
under test take variable time), derandomized draws so a run repeats
exactly, and no example database left behind.  Tests set only their own
max_examples and health-check exemptions.

assert_bitwise compares arrays byte for byte, so NaN payloads and signed
zeros count; test modules import it with `from conftest import
assert_bitwise`.

The peak_mib fixture is the one tracemalloc harness of the memory tests.

CHEB, NEARFIXED and the other map dicts are the `map` sections of the CLI
configs that test_cli and test_pins run.

iterate_block is the reference for the stepped orbit scans: the stored
(n+1) x count orbit batch the package built before its audits stepped
their starts themselves, copied here unchanged apart from its input checks
and phase column.  test_stepping pins its outputs by sha256.
"""

import importlib
import tracemalloc
from dataclasses import dataclass

# skewdyn first: it sets one BLAS thread, which numpy reads only as it loads
from skewdyn.core import _Orbits  # isort: skip

import numpy as np
import pytest
from hypothesis import settings

CHEB = {"lambda": [0.5, 0.0], "degree": 2, "mode": "unicritical",
        "fiber_coeffs": [[[-2.0, 0.0], [1.0, 0.0]]]}
NEARFIXED = {"lambda": [0.5, 0.0], "degree": 2, "mode": "unicritical",
             "fiber_coeffs": [[[0.2, 0.0], [1.0, 0.0]]]}
GENERAL3 = {"lambda": [0.5, 0.0], "degree": 3, "mode": "general",
            "fiber_coeffs": [[[-0.5, 0.0], [1.0, 0.0]], [[-1.2, 0.0], [0.3, 0.0]],
                             [[0.0, 0.2]]]}
AIRPLANEISH = {"lambda": [0.65, 0.0], "degree": 2, "mode": "unicritical",
               "fiber_coeffs": [[[-1.749, 0.0], [1.0, 0.0]]]}
BASILICA = dict(CHEB, fiber_coeffs=[[[-1.0, 0.0], [1.0, 0.0]]])
ESCAPING_CUBIC = {"lambda": [0.6, -0.1], "degree": 3, "mode": "unicritical",
                  "fiber_coeffs": [[[0.0, 1.2], [1.0, 0.0]]]}
QUARTIC = {"lambda": [0.5, 0.2], "degree": 4, "mode": "general",
           "fiber_coeffs": [[[1.0, 0.0], [1.0, 0.0]], [[0.3, 0.0]],
                            [[-2.6, 0.0], [0.0, 0.1]], [[0.0, 0.0]]]}
CHEB_GENERAL = dict(CHEB, mode="general")

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


@dataclass
class TraceBlock:
    """Struct-of-arrays orbit batch: row n, column j is step n of orbit j.

    Entries past an orbit's escape step hold NaN (tame: False).
    lengths[j] = number of valid rows of column j; len(block) is the
    number of orbits.
    """

    z0s: np.ndarray
    ws: np.ndarray  # (n+1, m) complex
    log_vder: np.ndarray  # (n+1, m) float
    tame: np.ndarray  # (n+1, m) bool
    lengths: np.ndarray  # (m,) int
    escaped: np.ndarray  # (m,) bool

    def __len__(self) -> int:
        return self.ws.shape[1]

    @property
    def n(self) -> int:
        """The horizon, as bounds.TraceStarts.n: the rows past step 0."""
        return self.ws.shape[0] - 1


def iterate_block(map, z0s, w0s, n: int) -> TraceBlock:
    """The starts stepped n times together; an orbit stops at its escape."""
    z0s = np.asarray(z0s, dtype=complex)
    w0s = np.asarray(w0s, dtype=complex)
    m = len(w0s)
    ws = np.full((n + 1, m), np.nan, dtype=complex)
    logs = np.full((n + 1, m), np.nan)
    tame = np.zeros((n + 1, m), dtype=bool)
    lengths = np.ones(m, dtype=int)
    ws[0] = w0s
    logs[0] = 0.0
    tame[0] = np.abs(z0s) ** map.k <= np.abs(w0s) ** map.degree

    orbits = _Orbits(map, z0s, w0s, factors=True)
    orbits.retire(orbits.absw > map.escape_radius)
    for i in orbits.steps(n):
        idx = orbits.idx
        with np.errstate(divide="ignore"):
            logs[i, idx] = logs[i - 1, idx] + np.log(np.abs(orbits.factor))
        ws[i, idx] = orbits.w
        tame[i, idx] = np.abs(orbits.z) ** map.k <= orbits.absw ** map.degree
        lengths[idx] = i + 1
        orbits.retire(orbits.absw > map.escape_radius)
    # an orbit escaped iff its last recorded point lies past the radius
    escaped = np.abs(ws[lengths - 1, np.arange(m)]) > map.escape_radius
    return TraceBlock(z0s=z0s, ws=ws, log_vder=logs, tame=tame,
                      lengths=lengths, escaped=escaped)
