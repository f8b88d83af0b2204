"""One-dimensional fiber polynomial: evaluation, derivatives, cycles.

The fiber of the skew product over z = 0 is a monic polynomial
f0(w) = w^d + c_{d-1} w^{d-1} + ... + c_1 w + c_0.  Everything here works on
that one-dimensional map; the two-dimensional wrappers live in core.py.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import RootFindingFailed

_REFINE_RESIDUAL = 1e-12
_DETECT_STEPS = 10_000
_DETECT_TOL = 1e-3


def _poly_eval(coeffs: tuple[complex, ...], z, monic: bool | None = None, out=None):
    """Horner evaluation of a low-to-high coefficient tuple; array friendly.

    A monic tuple (see _monic) starts from z + coeffs[-2]; any other starts
    from z * 0 + coeffs[-1].  The test costs more than a scalar step, so a
    caller that evaluates one tuple many times passes its _monic(coeffs).
    An array caller may pass out for a nonempty tuple, of z's shape and
    sharing no memory with z: the same ufuncs then write into it."""
    if not coeffs:
        return z * 0
    if monic is None:
        monic = _monic(coeffs)
    lead, rest = (coeffs[-2], coeffs[:-2]) if monic else (coeffs[-1], coeffs[:-1])
    if out is None:
        acc = z + lead if monic else z * 0 + lead
        for c in reversed(rest):
            acc = acc * z + c
        return acc
    if monic:
        np.add(z, lead, out=out)
    else:
        np.multiply(z, 0, out=out)
        np.add(out, lead, out=out)
    for c in reversed(rest):
        np.multiply(out, z, out=out)
        np.add(out, c, out=out)
    return out


def _monic(coeffs) -> bool:
    """Whether Horner may start from z + coeffs[-2].  With coeffs[-1] == 1
    that equals (z * 0 + 1) * z + coeffs[-2] bit for bit for finite z,
    unless a part of coeffs[-2] is -0.0: a zero part of z then keeps its
    sign where the long form gives +0.0."""
    if len(coeffs) < 2 or coeffs[-1] != 1:
        return False
    c = complex(coeffs[-2])
    return not any(x == 0 and math.copysign(1.0, x) < 0 for x in (c.real, c.imag))


def _poly_deriv(coeffs: tuple[complex, ...]) -> tuple[complex, ...]:
    return tuple(j * coeffs[j] for j in range(1, len(coeffs)))


@dataclass(frozen=True)
class Cycle:
    """A periodic orbit of the fiber map with its multiplier."""

    points: tuple[complex, ...]
    multiplier: complex

    @property
    def period(self) -> int:
        return len(self.points)

    @property
    def attracting(self) -> bool:
        return abs(self.multiplier) < 1.0

    def distance(self, w: complex) -> float:
        return min(abs(w - p) for p in self.points)


@dataclass(frozen=True)
class FiberMap:
    """Monic polynomial w^d + sum_{i<d} coeffs[i] * w^i."""

    degree: int
    coeffs: tuple[complex, ...]  # c_0 .. c_{d-1}, low to high

    @functools.cached_property
    def _polys(self) -> tuple[tuple, tuple, tuple]:
        """f0, f0' and f0'' as low-to-high tuples with integer leads 1, d and
        d (d - 1).  f0'' takes i * (i - 1) * c_i: _poly_deriv applied twice
        gives (i - 1) * (i * c_i), which rounds apart once d reaches 7."""
        f = (*self.coeffs, 1)
        return f, _poly_deriv(f), tuple(i * (i - 1) * f[i] for i in range(2, len(f)))

    def __call__(self, w, out=None):
        # the short start w + c_{d-1} even where _monic refuses a -0.0 part
        return _poly_eval(self._polys[0], w, True, out)

    def deriv(self, w):
        return _poly_eval(self._polys[1], w, False)

    def second_deriv(self, w):
        return _poly_eval(self._polys[2], w, False)

    def walk(self, w, n: int) -> Iterator[tuple[complex, complex]]:
        """(f0'(w_{j-1}), w_j) for j = 1..n, where w_0 = w and w_j = f0(w_{j-1}):
        each step's derivative factor and the point it lands on."""
        for _ in range(n):
            prev, w = w, self(w)
            yield self.deriv(prev), w

    def orbit(self, w: complex, n: int) -> list[complex]:
        out = [w]
        for _ in range(n):
            w = self(w)
            out.append(w)
        return out

    def cycle_multiplier(self, points) -> complex:
        m = 1.0 + 0.0j
        for p in points:
            m *= self.deriv(p)
        return m

    def critical_points(self) -> list[complex]:
        """Roots of f0', refined by Newton to residual below 1e-12."""
        high_to_low = [complex(c) for c in reversed(self._polys[1])]  # of f0'
        roots = np.roots(high_to_low) if self.degree > 1 else np.array([])
        refined = []
        for r in roots:
            w, _ = _newton(lambda v: (self.deriv(v), self.second_deriv(v)),
                           complex(r), 60)
            if abs(self.deriv(w)) > 1e-8:
                raise RootFindingFailed(
                    f"critical point refinement stalled at {w!r}, residual {abs(self.deriv(w)):.3e}"
                )
            refined.append(w)
        return refined

    def attracting_cycles(self, max_period: int = 12, escape_radius: float = 1e6,
                          include_parabolic: bool = False) -> list[Cycle]:
        """Attracting cycles found by iterating every fiber critical point.

        Each critical point is iterated 10^4 steps; the orbit tail is scanned
        for an approximate period <= max_period, and candidates are refined by
        Newton on f0^p(w) - w to residual < 1e-12.  Only cycles with
        |multiplier| < 1 are returned, deduplicated across critical points;
        a multiplier within 1e-3 of 1 cannot be told apart from parabolic
        at that residual, so such cycles count as parabolic candidates and
        appear only when include_parabolic is set.
        """
        return _select_cycles(self.cycle_scan(max_period, escape_radius),
                              include_parabolic)

    def cycle_scan(self, max_period: int = 12,
                   escape_radius: float = 1e6) -> tuple[tuple[Cycle, ...], ...]:
        """The search both variants of attracting_cycles select from.

        One entry per critical point whose orbit stays within escape_radius
        for 10^4 steps: the cycles refined from its orbit tail, in period
        order, that are attracting or parabolic candidates.  The entry ends
        at the first attracting cycle that is not a parabolic candidate,
        where the search without parabolic candidates stops.
        """
        scan = []
        for w0 in self.critical_points():
            w = w0
            for _ in range(_DETECT_STEPS):
                w = self(w)
                if not abs(w) <= escape_radius:  # escaped, or NaN
                    break
            if not abs(w) <= escape_radius:
                continue
            tail = self.orbit(w, max_period)
            found = []
            for p in range(1, max_period + 1):
                if abs(tail[p] - tail[0]) > _DETECT_TOL:
                    continue
                cyc = self._refine_cycle(tail[0], p)
                if cyc is None:
                    continue
                if _parabolic(cyc):
                    found.append(cyc)
                elif cyc.attracting:
                    found.append(cyc)
                    break
            scan.append(tuple(found))
        return tuple(scan)

    def _refine_cycle(self, w: complex, period: int) -> Cycle | None:
        """Newton-polish a fixed point of f0^period starting from w; None
        where Newton stops short of the residual."""

        def residual(w):
            dv = 1.0 + 0.0j
            for der, v in self.walk(w, period):
                dv *= der
            return v - w, dv - 1.0

        w, converged = _newton(residual, w, 200)
        if not converged:
            return None
        pts = [w]
        v = self(w)
        while len(pts) < period and abs(v - w) > 1e-9:
            pts.append(v)
            v = self(v)
        # Minimal period: the orbit may close up earlier than the probed period.
        points = tuple(pts)
        return Cycle(points=points, multiplier=self.cycle_multiplier(points))


def _newton(fn, w: complex, steps: int) -> tuple[complex, bool]:
    """Newton's method on fn(w) = (g(w), g'(w)) for at most steps steps:
    the last iterate, and whether |g| fell below 1e-12 there.  A zero g'
    stops it unconverged."""
    for _ in range(steps):
        g, gp = fn(w)
        if abs(g) < _REFINE_RESIDUAL:
            return w, True
        if gp == 0:
            return w, False
        w = w - g / gp
    return w, False


def _parabolic(cyc: Cycle) -> bool:
    # at refinement tolerance a multiplier within 1e-3 of 1 cannot be
    # distinguished from exactly parabolic; keep the candidate class
    # separate from certified attracting cycles
    return abs(cyc.multiplier - 1.0) < 1e-3


def _select_cycles(scan, include_parabolic: bool) -> list[Cycle]:
    """attracting_cycles from a cycle_scan: each critical point gives its
    first cycle (without include_parabolic, its first that is not a
    parabolic candidate), unless a cycle already taken lies within 1e-8."""
    cycles: list[Cycle] = []
    for found in scan:
        for cyc in found:
            if not include_parabolic and _parabolic(cyc):
                continue
            if not any(existing.distance(cyc.points[0]) < 1e-8 for existing in cycles):
                cycles.append(cyc)
            break
    return cycles
