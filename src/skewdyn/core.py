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

import numpy as np

from .errors import (
    BaseOutsideDomain,
    DegenerateFiber,
    DegreeTooLow,
    HorizonNonPositive,
    MultiplierNotContracting,
    SkewdynError,
)
from .fiber import Cycle, FiberMap

_COEFF_ZERO_REL = 1e-13
_R0_START = 0.5
_R0_SHRINK = 0.9
_R0_SAFETY = 1.05
_GRID_RADII = 16
_GRID_ANGLES = 512


def _poly_eval(coeffs: tuple[complex, ...], z):
    """Horner evaluation of a low-to-high coefficient tuple; array friendly."""
    if not coeffs:
        return z * 0
    acc = z * 0 + coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _poly_deriv(coeffs: tuple[complex, ...]) -> tuple[complex, ...]:
    return tuple(j * coeffs[j] for j in range(1, len(coeffs)))


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

    def coeff_at(self, i: int, z):
        return _poly_eval(self.fiber_coeffs[i], z)

    def coeff_deriv_at(self, i: int, z):
        return _poly_eval(_poly_deriv(self.fiber_coeffs[i]), z)

    def c0_at(self, z):
        return _poly_eval(self.fiber_coeffs[0], z)

    @property
    def c0_origin(self) -> complex:
        return complex(self.fiber_coeffs[0][0])

    def f0(self) -> FiberMap:
        return FiberMap(
            degree=self.degree,
            coeffs=tuple(_poly_eval(c, 0.0 + 0.0j) for c in self.fiber_coeffs),
        )

    def fiber_value(self, z, w):
        """F(z, w) = w^d + sum_i c_i(z) w^i."""
        if self.mode == "unicritical":
            return w**self.degree + self.c0_at(z)
        # Horner in w over the z-evaluated coefficients, leading coefficient 1.
        acc = w * 0 + 1
        for i in range(self.degree - 1, -1, -1):
            acc = acc * w + self.coeff_at(i, z)
        return acc

    def dfdw(self, z, w):
        """Vertical partial derivative dF/dw(z, w)."""
        if self.mode == "unicritical":
            return self.degree * w ** (self.degree - 1)
        total = self.degree * w ** (self.degree - 1)
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


def iterate(map: SkewProductMap, x0, n: int) -> OrbitTrace:
    """Forward orbit of x0 = (z0, w0) for n steps with cocycle and tame flags.

    Stops early once |w| exceeds the escape radius, recording escape_step;
    the returned trace is then shorter than requested.
    """
    z0, w0 = complex(x0[0]), complex(x0[1])
    if n < 0:
        raise HorizonNonPositive(f"step count must be >= 0, got {n}")
    if abs(z0) >= map.r0:
        raise BaseOutsideDomain(f"|z0| = {abs(z0):.6g} >= r0 = {map.r0:.6g}")

    zs = [z0]
    ws = [w0]
    logs = [0.0]
    phases = [0.0]
    escape_step = None
    radius = map.escape_radius
    log, phase, dfdw, step = math.log, cmath.phase, map.dfdw, map.step
    log_acc = phase_acc = 0.0
    z, w = z0, w0
    for i in range(n):
        if abs(w) > radius:
            escape_step = i
            break
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

    zs_arr = np.array(zs, dtype=complex)
    ws_arr = np.array(ws, dtype=complex)
    with np.errstate(divide="ignore"):
        tame = np.abs(zs_arr) ** map.k <= np.abs(ws_arr) ** map.degree
    return OrbitTrace(
        z0=z0,
        w0=w0,
        zs=zs_arr,
        ws=ws_arr,
        log_vder=np.array(logs),
        vder_phase=np.array(phases),
        tame_flags=tame,
        escape_step=escape_step,
    )


@functools.lru_cache(maxsize=256)
def _cached_cycles(map: SkewProductMap, max_period: int,
                   include_parabolic: bool) -> tuple[Cycle, ...]:
    bound = max(1e6, map.escape_radius * 100.0)
    return tuple(map.f0().attracting_cycles(
        max_period, escape_radius=bound, include_parabolic=include_parabolic))


def find_attracting_cycles(map: SkewProductMap, max_period: int = 12,
                           include_parabolic: bool = False) -> list[Cycle]:
    """Attracting cycles of the invariant-line fiber map f0.

    With include_parabolic, cycles whose multiplier sits within 1e-3 of 1
    (parabolic candidates) are returned as well.
    """
    if not 1 <= max_period <= 12:
        raise ValueError(f"max_period must be in 1..12, got {max_period}")
    return list(_cached_cycles(map, max_period, include_parabolic))


# -- vectorized block iteration ---------------------------------------------------


class _Orbits:
    """The live orbits of a batch, stepped together in compacted arrays.

    idx holds their batch positions, z and w their coordinates (z is None
    for a FiberMap) and absw = |w|.  A z of length 1 is a shared base
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
                 factors: bool = False, lam_left: bool = False):
        self.map = map
        self.bound = bound
        self.factors = factors
        self.lam_left = lam_left
        self.z = None if z is None else np.asarray(z, dtype=complex)
        self.w = np.asarray(w, dtype=complex)
        self.idx = np.arange(len(self.w))
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
            z, w = self.z, self.w
            if self.factors:
                self.factor = m.deriv(w) if z is None else m.dfdw(z, w)
            self.w = m(w) if z is None else m.fiber_value(z, w)
            if z is not None:
                self.z = m.lam * z if self.lam_left else z * m.lam
            self.absw = np.abs(self.w)
            if self.bound is not None:
                self.retire(~(self.absw <= self.bound))
            yield n

    def retire(self, done: np.ndarray) -> None:
        """Drop the live orbits flagged in done (aligned with idx)."""
        if not done.any():
            return
        keep = ~done
        self.idx, self.w, self.absw = self.idx[keep], self.w[keep], self.absw[keep]
        if self.z is not None and not self.shared:
            self.z = self.z[keep]
        if self.factor is not None:
            self.factor = self.factor[keep]
        self.carry = {k: a[..., keep] for k, a in self.carry.items()}


@dataclass
class TraceBlock:
    """Struct-of-arrays orbit batch: row n, column j is step n of orbit j.

    Columns stop being updated once they escape; entries past an orbit's
    escape step hold NaN (tame: False).  lengths[j] = number of valid rows
    of column j; len(block) is the number of orbits.
    """

    z0s: np.ndarray
    ws: np.ndarray  # (n+1, m) complex, NaN past escape
    log_vder: np.ndarray  # (n+1, m) float, NaN past escape
    vder_phase: np.ndarray  # (n+1, m) float, NaN past escape
    tame: np.ndarray  # (n+1, m) bool
    lengths: np.ndarray  # (m,) int
    escaped: np.ndarray  # (m,) bool
    lam: complex

    def __len__(self) -> int:
        return self.ws.shape[1]

    def zs_at(self, n: int) -> np.ndarray:
        return self.z0s * self.lam**n


def iterate_block(map: SkewProductMap, z0s, w0s, n: int) -> TraceBlock:
    """Vectorized iterate for a batch of starts; steps only unescaped orbits."""
    if n < 0:
        raise HorizonNonPositive(f"step count must be >= 0, got {n}")
    z0s = np.asarray(z0s, dtype=complex)
    w0s = np.asarray(w0s, dtype=complex)
    if np.any(np.abs(z0s) >= map.r0):
        raise BaseOutsideDomain("a batch start has |z0| >= r0")
    m = len(w0s)
    ws = np.full((n + 1, m), np.nan, dtype=complex)
    logs = np.full((n + 1, m), np.nan)
    phases = np.full((n + 1, m), np.nan)
    tame = np.zeros((n + 1, m), dtype=bool)
    lengths = np.ones(m, dtype=int)
    ws[0] = w0s
    logs[0] = 0.0
    phases[0] = 0.0
    tame[0] = np.abs(z0s) ** map.k <= np.abs(w0s) ** map.degree

    orbits = _Orbits(map, z0s, w0s, factors=True)
    orbits.retire(orbits.absw > map.escape_radius)
    for i in orbits.steps(n):
        idx, factor = orbits.idx, orbits.factor
        mag = np.abs(factor)
        with np.errstate(divide="ignore"):
            logs[i, idx] = logs[i - 1, idx] + np.log(mag)
        phases[i, idx] = phases[i - 1, idx] + np.where(mag > 0, np.angle(factor), 0.0)
        ws[i, idx] = orbits.w
        tame[i, idx] = np.abs(orbits.z) ** map.k <= orbits.absw ** map.degree
        lengths[idx] = i + 1
        orbits.retire(orbits.absw > map.escape_radius)
    # an orbit escaped iff its last recorded point lies past the radius
    escaped = np.abs(ws[lengths - 1, np.arange(m)]) > map.escape_radius
    return TraceBlock(
        z0s=z0s, ws=ws, log_vder=logs, vder_phase=phases, tame=tame,
        lengths=lengths, escaped=escaped, lam=map.lam,
    )


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
    from .errors import ConfigInvalid

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
        polys = [[complex(p[0], p[1]) for p in poly] for poly in cfg["fiber_coeffs"]]
    except (TypeError, IndexError) as exc:
        raise ConfigInvalid(f"fiber_coeffs must be lists of [re, im] pairs: {exc}") from exc
    return build_map(complex(lam_pair[0], lam_pair[1]), degree, polys, mode)


_CSV_CHUNK = 4096  # rows formatted per join; bounds the transient row strings


def trace_to_csv(trace: OrbitTrace) -> str:
    """Orbit trace as CSV with 17-significant-digit floats."""
    escaped = [0] * len(trace)
    if trace.escape_step is not None and trace.escape_step < len(trace):
        escaped[trace.escape_step] = 1
    row = "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d\n"
    parts = ["n,z_re,z_im,w_re,w_im,log_vder,tame,escaped\n"]
    for lo in range(0, len(trace), _CSV_CHUNK):
        hi = lo + _CSV_CHUNK
        zs, ws = trace.zs[lo:hi], trace.ws[lo:hi]
        rows = zip(range(lo, lo + len(zs)), zs.real.tolist(), zs.imag.tolist(),
                   ws.real.tolist(), ws.imag.tolist(), trace.log_vder[lo:hi].tolist(),
                   trace.tame_flags[lo:hi].tolist(), escaped[lo:hi])
        parts.append("".join([row % r for r in rows]))
    return "".join(parts)
