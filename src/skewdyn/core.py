"""Skew-product construction, iteration, and the vertical derivative cocycle.

A map here is f(z, w) = (lambda * z, w^d + sum_i c_i(z) w^i) with
0 < |lambda| < 1 and monic fiber degree d >= 2.  Build-time normalization
rescales the base coordinate of a unicritical map so the leading base term of
c0(z) - c0(0) has unit coefficient, then fixes a working base radius r0 and an
escape radius for the fiber.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import (
    BaseOutsideDomain,
    ConfigInvalid,
    DegenerateFiber,
    DegreeTooLow,
    HorizonNonPositive,
    MultiplierNotContracting,
    SkewdynError,
)
from .fiber import Cycle, FiberMap, _monic, _poly_deriv, _poly_eval, _select_cycles

_COEFF_ZERO_REL = 1e-13
_R0_START = 0.5
_R0_SHRINK = 0.9
_R0_SAFETY = 1.05
_GRID_RADII = 16
_GRID_ANGLES = 512


def _strip(coeffs) -> tuple[complex, ...]:
    out = [complex(c) for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class SkewProductMap:
    """Normalized skew product; immutable after build_map."""

    lam: complex
    degree: int
    mode: str  # "unicritical" | "general"
    fiber_coeffs: tuple[tuple[complex, ...], ...]  # c_0 .. c_{d-1}, each low-to-high in z
    k: int
    r0: float
    escape_radius: float

    # -- fiber polynomial access -------------------------------------------------

    @functools.cached_property
    def _monic_coeffs(self) -> tuple[bool, ...]:
        return tuple(_monic(c) for c in self.fiber_coeffs)

    @functools.cached_property
    def _deriv_coeffs(self) -> tuple[tuple[tuple[complex, ...], bool], ...]:
        return tuple((p, _monic(p)) for p in (_poly_deriv(c) for c in self.fiber_coeffs))

    def coeff_at(self, i: int, z):
        return _poly_eval(self.fiber_coeffs[i], z, self._monic_coeffs[i])

    def coeff_deriv_at(self, i: int, z):
        deriv, monic = self._deriv_coeffs[i]
        return _poly_eval(deriv, z, monic)

    def c0_at(self, z):
        return _poly_eval(self.fiber_coeffs[0], z, self._monic_coeffs[0])

    @property
    def c0_origin(self) -> complex:
        return complex(self.fiber_coeffs[0][0])

    def f0(self) -> FiberMap:
        return FiberMap(
            degree=self.degree,
            coeffs=tuple(_poly_eval(c, 0.0 + 0.0j) for c in self.fiber_coeffs),
        )

    def fiber_value(self, z, w, out=None):
        """F(z, w) = w^d + sum_i c_i(z) w^i.

        An array caller may pass out, an array of w's shape that shares no
        memory with w: the value is written there and returned, by the
        ufuncs numpy runs for the operator expression, so bit for bit the
        same as without out."""
        if self.mode == "general":
            # Horner in w over the z-evaluated coefficients, leading coefficient 1.
            cz = (*(self.coeff_at(i, z) for i in range(self.degree)), 1)
            return _poly_eval(cz, w, False, out)
        if out is None:
            return w**self.degree + self.c0_at(z)
        # numpy's w**2 is np.square, which rounds apart from np.power(w, 2)
        if self.degree == 2:
            np.square(w, out=out)
        else:
            np.power(w, self.degree, out=out)
        return np.add(out, self.c0_at(z), out=out)

    def dfdw(self, z, w):
        """Vertical partial derivative dF/dw(z, w)."""
        total = self.degree * w ** (self.degree - 1)
        if self.mode == "general":
            for i in range(1, self.degree):
                total = total + i * self.coeff_at(i, z) * w ** (i - 1)
        return total

    def step(self, z, w):
        return self.lam * z, self.fiber_value(z, w)


@dataclass
class OrbitTrace:
    """Forward orbit with the log-scale vertical derivative cocycle.

    log_vder[n] = log |Df^n(x0)(v)| for the vertical unit vector v; the
    companion phase is the accumulated argument of the derivative factors.
    A factor that is exactly zero is recorded as -inf, with phase 0.
    """

    z0: complex
    w0: complex
    zs: np.ndarray
    ws: np.ndarray
    log_vder: np.ndarray
    vder_phase: np.ndarray
    tame_flags: np.ndarray
    escape_step: int | None

    def __len__(self) -> int:
        return len(self.ws)


def build_map(lam: complex, degree: int, fiber_coeffs, mode: str = "unicritical") -> SkewProductMap:
    """Validate, normalize, and equip a skew product with r0 and escape radius.

    For a unicritical map the base coordinate is rescaled so that the lowest
    z-power of c0(z) - c0(0) carries coefficient exactly 1; all returned
    coefficients (and all later point coordinates) refer to the rescaled
    coordinate.  r0 < 1 is found by geometric search so that on a sampled grid
    of B(0, r0/|lambda|) the leading term dominates the normalization
    remainder with safety factor 1.05.
    """
    lam = complex(lam)
    if not 0 < abs(lam) < 1:
        raise MultiplierNotContracting(f"need 0 < |lambda| < 1, got |lambda| = {abs(lam):.6g}")
    if degree < 2:
        raise DegreeTooLow(f"fiber degree must be >= 2, got {degree}")
    if mode not in ("unicritical", "general"):
        raise SkewdynError(f"unknown mode {mode!r}")

    coeffs = _normalize_coeff_input(fiber_coeffs, degree, mode)

    if mode == "unicritical":
        coeffs, k = _normalize_unicritical(coeffs)
        r0 = _search_r0(coeffs[0], k, lam)
    else:
        k = 1
        r0 = _R0_START

    escape_radius = _search_escape_radius(coeffs, degree, r0)
    return SkewProductMap(
        lam=lam,
        degree=degree,
        mode=mode,
        fiber_coeffs=coeffs,
        k=k,
        r0=r0,
        escape_radius=escape_radius,
    )


def _normalize_coeff_input(fiber_coeffs, degree: int, mode: str) -> tuple[tuple[complex, ...], ...]:
    entries = list(fiber_coeffs)
    if entries and not hasattr(entries[0], "__iter__"):
        # A bare coefficient sequence means c0 alone.
        entries = [entries]
    if len(entries) == 1:
        entries = entries + [[0.0]] * (degree - 1)
    if len(entries) != degree:
        raise SkewdynError(
            f"fiber_coeffs must give c_0..c_{degree - 1} (or just c_0), got {len(entries)} entries"
        )
    coeffs = tuple(_strip(e) for e in entries)
    if mode == "unicritical":
        for i in range(1, degree):
            if any(c != 0 for c in coeffs[i]):
                raise SkewdynError("unicritical mode requires c_i = 0 for 1 <= i < d")
    return coeffs


def _normalize_unicritical(coeffs):
    c0 = coeffs[0]
    scale = max((abs(c) for c in c0), default=0.0)
    k = None
    for j in range(1, len(c0)):
        if abs(c0[j]) > _COEFF_ZERO_REL * max(scale, 1.0):
            k = j
            break
    if k is None:
        raise DegenerateFiber("c0(z) does not depend on z")
    alpha = cmath.exp(-cmath.log(c0[k]) / k)
    new_c0 = tuple(c0[j] * alpha**j for j in range(len(c0)))
    # Snap the leading coefficient onto 1 exactly; it is within rounding of it.
    new_c0 = new_c0[:k] + (1.0 + 0.0j,) + new_c0[k + 1 :]
    return (new_c0,) + coeffs[1:], k


def _search_r0(c0: tuple[complex, ...], k: int, lam: complex) -> float:
    """Largest radius in {0.5 * 0.9^j} whose sampled grid passes Eq-style domination."""
    angles = np.exp(2j * np.pi * np.arange(_GRID_ANGLES) / _GRID_ANGLES)
    remainder = list(c0)
    remainder[0] = 0.0
    remainder[k] = remainder[k] - 1.0
    rem = _strip(remainder)

    r = _R0_START
    for _ in range(2000):
        outer = r / abs(lam)
        ok = True
        for t in range(1, _GRID_RADII + 1):
            rho = outer * t / _GRID_RADII
            zs = rho * angles
            lhs = rho**k
            rhs = np.abs(_poly_eval(rem, zs)).max()
            if lhs < _R0_SAFETY * rhs:
                ok = False
                break
        if ok:
            return r
        r *= _R0_SHRINK
    raise SkewdynError("no admissible r0 found; fiber coefficients look degenerate")


def _search_escape_radius(coeffs, degree: int, r0: float) -> float:
    """Smallest grid-searched R >= 2 with R^d - max|F - w^d| >= 2R."""
    angles = np.exp(2j * np.pi * np.arange(_GRID_ANGLES) / _GRID_ANGLES)
    maxima = []
    for c in coeffs:
        worst = abs(_poly_eval(c, 0.0 + 0.0j))
        for t in range(1, _GRID_RADII + 1):
            rho = r0 * t / _GRID_RADII
            worst = max(worst, float(np.abs(_poly_eval(c, rho * angles)).max()))
        maxima.append(worst)

    r = 2.0
    for _ in range(4000):
        slack = r**degree - sum(m * r**i for i, m in enumerate(maxima))
        if slack >= 2 * r:
            return r
        r *= 1.05
    raise SkewdynError("escape radius search did not terminate")


_CHUNK = 4096  # orbit steps per chunk, and rows per CSV chunk


class OrbitChunk(NamedTuple):
    """Rows first .. first + len(ws) - 1 of an orbit trace, columns as in
    OrbitTrace.  escape_step is the trace's escape step if its row lies in
    this chunk, else None."""

    first: int
    zs: np.ndarray
    ws: np.ndarray
    log_vder: np.ndarray
    vder_phase: np.ndarray
    tame_flags: np.ndarray
    escape_step: int | None


def orbit_chunks(map: SkewProductMap, x0, n: int) -> Iterator[OrbitChunk]:
    """iterate's trace as chunks of _CHUNK rows (the last one shorter, never
    empty), each yielded as it leaves the stepping loop.  The inputs are
    checked here, before the first chunk is asked for."""
    z0, w0 = complex(x0[0]), complex(x0[1])
    if n < 0:
        raise HorizonNonPositive(f"step count must be >= 0, got {n}")
    if not abs(z0) < map.r0:  # NaN fails too
        raise BaseOutsideDomain(f"|z0| = {abs(z0):.6g} >= r0 = {map.r0:.6g}")
    return _stepped(map, z0, w0, n)


def _stepped(map: SkewProductMap, z0: complex, w0: complex, n: int) -> Iterator[OrbitChunk]:
    # rows wait in short lists and leave as one numpy chunk every _CHUNK
    # steps, so the Python objects alive at once stay bounded whatever n is
    zs, ws, logs, phases = [z0], [w0], [0.0], [0.0]
    first = 0
    escape_step = None
    radius = map.escape_radius
    log, phase, dfdw, step = math.log, cmath.phase, map.dfdw, map.step
    log_acc = phase_acc = 0.0
    z, w = z0, w0
    for i in range(n):
        if abs(w) > radius:
            escape_step = i
            break
        # a full chunk leaves only once its last row is known not to escape
        if len(ws) == _CHUNK:
            yield _chunk(map, first, zs, ws, logs, phases, None)
            first += _CHUNK
            zs, ws, logs, phases = [], [], [], []
        factor = dfdw(z, w)
        z, w = step(z, w)
        mag = abs(factor)
        log_acc += log(mag) if mag > 0 else -math.inf
        phase_acc += phase(factor) if mag > 0 else 0.0
        logs.append(log_acc)
        phases.append(phase_acc)
        zs.append(z)
        ws.append(w)
    else:
        if abs(w) > radius:
            escape_step = n
    yield _chunk(map, first, zs, ws, logs, phases, escape_step)


def _chunk(map: SkewProductMap, first: int, zs: list, ws: list, logs: list,
           phases: list, escape_step: int | None) -> OrbitChunk:
    zs_arr, ws_arr = np.array(zs, dtype=complex), np.array(ws, dtype=complex)
    # elementwise, so a chunk's flags are the bits of the whole trace's
    with np.errstate(divide="ignore"):
        tame = np.abs(zs_arr) ** map.k <= np.abs(ws_arr) ** map.degree
    return OrbitChunk(first, zs_arr, ws_arr, np.array(logs, dtype=float),
                      np.array(phases, dtype=float), tame, escape_step)


def iterate(map: SkewProductMap, x0, n: int) -> OrbitTrace:
    """Forward orbit of x0 = (z0, w0) for n steps with cocycle and tame flags.

    Stops early once |w| exceeds the escape radius, recording escape_step;
    the returned trace is then shorter than requested.  The trace is
    orbit_chunks' chunks joined.
    """
    chunks = list(orbit_chunks(map, x0, n))
    zs, ws, logs, phases, tame = (
        np.concatenate([getattr(c, name) for c in chunks])
        for name in ("zs", "ws", "log_vder", "vder_phase", "tame_flags"))
    return OrbitTrace(
        z0=complex(x0[0]),
        w0=complex(x0[1]),
        zs=zs,
        ws=ws,
        log_vder=logs,
        vder_phase=phases,
        tame_flags=tame,
        escape_step=chunks[-1].escape_step,
    )


@functools.lru_cache(maxsize=256)
def _cached_cycles(map: SkewProductMap, max_period: int) -> tuple[tuple[Cycle, ...], ...]:
    # one scan serves both variants: the parabolic candidates only change
    # which of its cycles each critical point contributes
    bound = max(1e6, map.escape_radius * 100.0)
    return map.f0().cycle_scan(max_period, escape_radius=bound)


def find_attracting_cycles(map: SkewProductMap, max_period: int = 12,
                           include_parabolic: bool = False) -> list[Cycle]:
    """Attracting cycles of the invariant-line fiber map f0.

    With include_parabolic, cycles whose multiplier sits within 1e-3 of 1
    (parabolic candidates) are returned as well.
    """
    if not 1 <= max_period <= 12:
        raise ValueError(f"max_period must be in 1..12, got {max_period}")
    return _select_cycles(_cached_cycles(map, max_period), include_parabolic)


# -- vectorized block iteration ---------------------------------------------------


class _Orbits:
    """The live orbits of a batch, stepped together in compacted arrays.

    idx holds their batch positions, counted from first (a slice of a larger
    batch keeps its positions in it), z and w their coordinates (z is None
    for a FiberMap) and absw = |w|.  w is a copy of the caller's starts,
    and spare a second buffer of its length: a step writes the new w into
    spare, swaps the two and updates absw in place, so with a shared base
    orbit and no factors a step allocates no batch-sized array (a z per
    orbit, its c_i(z) and the factors are still new arrays each step).
    The arrays w and absw therefore hold their values only until the next
    step, and between steps a caller may use spare as scratch.  retire
    moves the kept w into spare and shrinks both buffers to views of their
    first len(idx) entries.  A z of length 1 is a shared base
    orbit: it stands for every orbit of the batch (all starts on one
    fiber), is stepped once per step, and its c_i(z) terms broadcast
    against the live w; retire leaves it alone.  Otherwise z holds one
    base point per orbit.  `steps` drops the orbits whose |w| is not within
    bound after each step, `retire` those a caller is done with, each with
    its columns (last axis) of the carry arrays.  With factors, factor is
    the vertical derivative factor of the latest step at its start.
    numpy's elementwise results do not depend on array position, so
    neither compaction nor the shared base changes a value; its complex
    products are not bitwise commutative, though, so lam_left keeps a
    caller's lam * z from z * lam.
    """

    def __init__(self, map, z, w, bound: float | None = None, carry=None,
                 factors: bool = False, lam_left: bool = False, first: int = 0):
        self.map = map
        self.bound = bound
        self.factors = factors
        self.lam_left = lam_left
        self.z = None if z is None else np.asarray(z, dtype=complex)
        self.w = np.array(w, dtype=complex)
        self.spare = np.empty_like(self.w)
        self.idx = np.arange(first, first + len(self.w))
        self.absw = np.abs(self.w)
        self.carry = carry or {}
        self.factor = None
        self.shared = self.z is not None and len(self.z) == 1

    def steps(self, count: int):
        """Step up to count times, yielding the step number after each;
        stops early once no orbit is live."""
        m = self.map
        for n in range(1, count + 1):
            if not len(self.idx):
                return
            z, w, new = self.z, self.w, self.spare
            if self.factors:
                self.factor = m.deriv(w) if z is None else m.dfdw(z, w)
            if z is None:
                m(w, out=new)
            else:
                m.fiber_value(z, w, out=new)
                self.z = m.lam * z if self.lam_left else z * m.lam
            self.w, self.spare = new, w
            np.abs(new, out=self.absw)
            if self.bound is not None:
                self.retire(~(self.absw <= self.bound))
            yield n

    def retire(self, done: np.ndarray) -> None:
        """Drop the live orbits flagged in done (aligned with idx)."""
        if not done.any():
            return
        keep = ~done
        live = np.count_nonzero(keep)
        # the kept w go into spare (take's default mode would stage them in
        # a copy), then both buffers shrink to views
        np.take(self.w, np.flatnonzero(keep), out=self.spare[:live], mode="clip")
        self.w, self.spare = self.spare[:live], self.w[:live]
        # one array at a time, so each old one is freed before the next is made
        self.idx = self.idx[keep]
        self.absw = self.absw[keep]
        if self.z is not None and not self.shared:
            self.z = self.z[keep]
        if self.factor is not None:
            self.factor = self.factor[keep]
        self.carry = {k: a[..., keep] for k, a in self.carry.items()}


# -- external formats --------------------------------------------------------------


def _c2pair(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def map_to_config(map: SkewProductMap) -> dict:
    return {
        "lambda": _c2pair(map.lam),
        "degree": map.degree,
        "mode": map.mode,
        "fiber_coeffs": [[_c2pair(c) for c in poly] for poly in map.fiber_coeffs],
    }


def map_from_config(cfg: dict) -> SkewProductMap:
    """Strictly parse the map schema and build the map."""
    required = {"lambda", "degree", "mode", "fiber_coeffs"}
    if not isinstance(cfg, dict):
        raise ConfigInvalid("map config must be an object")
    unknown = set(cfg) - required
    if unknown:
        raise ConfigInvalid(f"unknown map fields: {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigInvalid(f"missing map fields: {sorted(missing)}")
    lam_pair = cfg["lambda"]
    if not (isinstance(lam_pair, (list, tuple)) and len(lam_pair) == 2):
        raise ConfigInvalid("lambda must be [re, im]")
    mode = cfg["mode"]
    if mode not in ("unicritical", "general"):
        raise ConfigInvalid(f"mode must be 'unicritical' or 'general', got {mode!r}")
    degree = cfg["degree"]
    if not isinstance(degree, int):
        raise ConfigInvalid("degree must be an integer")
    try:
        polys = [[_config_number(f"fiber_coeffs[{i}][{j}]", p) for j, p in enumerate(poly)]
                 for i, poly in enumerate(cfg["fiber_coeffs"])]
    except (TypeError, IndexError) as exc:
        raise ConfigInvalid(f"fiber_coeffs must be lists of [re, im] pairs: {exc}") from exc
    return build_map(_config_number("lambda", lam_pair), degree, polys, mode)


def _config_number(name: str, pair) -> complex:
    """A map config's [re, im] pair as a finite complex number."""
    try:
        value = complex(pair[0], pair[1])
    except (TypeError, IndexError, KeyError) as exc:
        raise ConfigInvalid(f"{name} must be a [re, im] pair of numbers, got {pair!r}") from exc
    except OverflowError:  # an int past float range
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise ConfigInvalid(f"{name} must be finite, got {pair!r}")
    return value


def orbit_csv_chunks(chunks: Iterable[OrbitChunk]) -> Iterator[str]:
    """Orbit trace chunks as CSV text with 17-significant-digit floats: the
    header, then one text chunk per trace chunk, so no text longer than a
    chunk is held."""
    row = "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d\n"
    yield "n,z_re,z_im,w_re,w_im,log_vder,tame,escaped\n"
    for c in chunks:
        escaped = [0] * len(c.zs)
        if c.escape_step is not None:
            escaped[c.escape_step - c.first] = 1
        rows = zip(range(c.first, c.first + len(c.zs)), c.zs.real.tolist(),
                   c.zs.imag.tolist(), c.ws.real.tolist(), c.ws.imag.tolist(),
                   c.log_vder.tolist(), c.tame_flags.tolist(), escaped)
        yield "".join([row % r for r in rows])


def trace_to_csv(trace: OrbitTrace) -> str:
    """Orbit trace as one CSV string: orbit_csv_chunks' text, in one chunk."""
    return "".join(orbit_csv_chunks([OrbitChunk(
        0, trace.zs, trace.ws, trace.log_vder, trace.vder_phase,
        trace.tame_flags, trace.escape_step)]))
