"""One-dimensional fiber polynomial: evaluation, derivatives, cycles.

The fiber of the skew product over z = 0 is a monic polynomial
f0(w) = w^d + c_{d-1} w^{d-1} + ... + c_1 w + c_0.  Everything here works on
that one-dimensional map; the two-dimensional wrappers live in core.py.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def __call__(self, w):
        # Horner on w^d + c_{d-1} w^{d-1} + ... + c_0; works on scalars and arrays.
        acc = w + self.coeffs[-1] if self.degree >= 1 else w * 0 + 1
        for c in reversed(self.coeffs[:-1]):
            acc = acc * w + c
        return acc

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
            w = complex(r)
            for _ in range(60):
                fv = self.deriv(w)
                if abs(fv) < _REFINE_RESIDUAL:
                    break
                dv = self.second_deriv(w)
                if dv == 0:
                    break
                w = w - fv / dv
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
        cycles: list[Cycle] = []
        for w0 in self.critical_points():
            w = w0
            escaped = False
            for _ in range(_DETECT_STEPS):
                w = self(w)
                if abs(w) > escape_radius or not (abs(w) == abs(w)):  # escape or nan
                    escaped = True
                    break
            if escaped:
                continue
            tail = self.orbit(w, max_period)
            for p in range(1, max_period + 1):
                if abs(tail[p] - tail[0]) > _DETECT_TOL:
                    continue
                cyc = self._refine_cycle(tail[0], p)
                if cyc is None:
                    continue
                # at refinement tolerance a multiplier within 1e-3 of 1 cannot
                # be distinguished from exactly parabolic; keep the candidate
                # class separate from certified attracting cycles
                if abs(cyc.multiplier - 1.0) < 1e-3:
                    if not include_parabolic:
                        continue
                elif not cyc.attracting:
                    continue
                if any(existing.distance(cyc.points[0]) < 1e-8 for existing in cycles):
                    break
                cycles.append(cyc)
                break
        return cycles

    def _refine_cycle(self, w: complex, period: int) -> Cycle | None:
        """Newton-polish a fixed point of f0^period starting from w."""
        for _ in range(200):
            v = w
            dv = 1.0 + 0.0j
            for _ in range(period):
                dv *= self.deriv(v)
                v = self(v)
            g = v - w
            if abs(g) < _REFINE_RESIDUAL:
                break
            gp = dv - 1.0
            if gp == 0:
                return None
            w = w - g / gp
        else:
            return None
        pts = [w]
        v = self(w)
        while len(pts) < period and abs(v - w) > 1e-9:
            pts.append(v)
            v = self(v)
        # Minimal period: the orbit may close up earlier than the probed period.
        points = tuple(pts)
        return Cycle(points=points, multiplier=self.cycle_multiplier(points))
