"""One-dimensional fiber polynomial: evaluation, derivatives, cycles.

The fiber of the skew product over z = 0 is a monic polynomial
f0(w) = w^d + c_{d-1} w^{d-1} + ... + c_1 w + c_0.  Everything here works on
that one-dimensional map; the two-dimensional wrappers live in core.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import RootFindingFailed

_REFINE_RESIDUAL = 1e-12
_DETECT_STEPS = 10_000
_DETECT_TOL = 1e-3


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

    def __call__(self, w, out=None):
        # Horner on w^d + c_{d-1} w^{d-1} + ... + c_0; works on scalars and
        # arrays.  An array caller may pass out, an array of w's shape that
        # shares no memory with w: the same ufuncs then write into it.
        if out is None:
            acc = w + self.coeffs[-1] if self.degree >= 1 else w * 0 + 1
            for c in reversed(self.coeffs[:-1]):
                acc = acc * w + c
            return acc
        np.add(w, self.coeffs[-1], out=out)
        for c in reversed(self.coeffs[:-1]):
            np.multiply(out, w, out=out)
            np.add(out, c, out=out)
        return out

    def deriv(self, w):
        acc = w * 0 + self.degree
        for i in range(self.degree - 1, 0, -1):
            acc = acc * w + i * self.coeffs[i]
        return acc

    def second_deriv(self, w):
        d = self.degree
        acc = w * 0 + d * (d - 1)
        for i in range(d - 1, 1, -1):
            acc = acc * w + i * (i - 1) * self.coeffs[i]
        return acc

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
        # High-to-low coefficients of the derivative polynomial.
        high_to_low = [complex(self.degree)]
        for i in range(self.degree - 1, 0, -1):
            high_to_low.append(complex(i) * complex(self.coeffs[i]))
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
