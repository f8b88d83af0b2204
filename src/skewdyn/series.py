"""Truncated series criteria along the critical orbit.

Four evaluations share one report shape: the unit-disk series F built from
reciprocal orbit derivatives, the base-contraction constant X0, the lower
Lyapunov estimate at a critical value, and the multicritical nondegeneracy
series.  Tail estimates extrapolate the last decade's term ratio
geometrically; near-zero verdicts compare the value against ten times that
tail, so the margin is scale-free.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

from .core import SkewProductMap, find_attracting_cycles
from .errors import (
    AttractingCyclePresent,
    CriticalOrbitDegenerate,
    OrbitOverflow,
    PreconditionViolated,
)
from .fiber import FiberMap, _poly_eval

DEFAULT_TERMS = 60
_MARGIN = 10.0  # verdicts need the value to clear this multiple of the tail


@dataclass
class SeriesEvaluation:
    """One truncated series with its provenance and verdict."""

    kind: str
    n_terms: int
    value: complex
    tail_estimate: float
    verdict: str
    partial_sums: list = field(default_factory=list)
    term_logs: list = field(default_factory=list)  # log magnitudes, term 1..N
    points: list | None = None
    per_point: list | None = None
    n_range: tuple[int, int] | None = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "N": self.n_terms,
            "value_re": self.value.real,
            "value_im": self.value.imag,
            "tail_estimate": self.tail_estimate,
            "verdict": self.verdict,
            "per_point": self.per_point or [],
        }


def geometric_tail(term_logs: list[float]) -> float:
    """Remaining mass extrapolated from the last decade's mean term ratio.

    Returns +inf when the recent ratio is >= 1 (no geometric control) and 0
    when the terms have underflowed to nothing.
    """
    n = len(term_logs)
    if n < 2:
        return 0.0 if n == 0 or term_logs[-1] == -math.inf else math.inf
    last = term_logs[-1]
    if last == -math.inf:
        return 0.0
    lo = min(n - 2, max(0, n - 1 - max(1, n // 10)))
    if term_logs[lo] == -math.inf:
        return math.inf  # a vanished term followed by mass: no clean ratio
    log_ratio = (last - term_logs[lo]) / (n - 1 - lo)
    if log_ratio >= 0.0:
        return math.inf
    ratio = math.exp(log_ratio)
    return math.exp(last) * ratio / (1.0 - ratio)


def _require_unicritical_fiber(f0: FiberMap) -> None:
    if any(c != 0 for c in f0.coeffs[1:]):
        raise PreconditionViolated(
            "this series needs the unicritical fiber normal form w^d + c")


def _require_terms(n_terms: int) -> None:
    # an empty series has a zero tail, so its verdict would check nothing
    if n_terms < 1:
        raise PreconditionViolated(f"need n_terms >= 1, got {n_terms}")


def _reciprocal_derivative_terms(f0: FiberMap, c: complex, n_terms: int,
                                 weight: complex):
    """Terms weight^n / (f0^n)'(c) for n = 1..n_terms, with log magnitudes.

    Raises CriticalOrbitDegenerate when the orbit of c runs through a zero
    of f0' (the reciprocal is undefined from that step on).  Once the orbit
    escapes past double range the step derivative is no longer finite, and
    every term from that step on is exactly 0 with log magnitude -inf.
    """
    terms, logs = [], []
    inv, log_mag = 1.0 + 0.0j, 0.0  # 1 / (f0^n)'(c) and its log modulus, stepwise
    lw = math.log(abs(weight)) if weight != 0 else -math.inf
    try:
        for n, (der, _) in enumerate(_critical_walk(f0, c, n_terms), start=1):
            inv /= der
            log_mag -= math.log(abs(der))
            if weight == 0:
                terms.append(0.0 + 0.0j)
                logs.append(-math.inf)
            else:
                terms.append(weight**n * inv)
                logs.append(n * lw + log_mag)
    except OrbitOverflow:
        escaped = n_terms - len(terms)
        terms.extend([0.0 + 0.0j] * escaped)
        logs.extend([-math.inf] * escaped)
    return terms, logs


def _critical_walk(f0: FiberMap, c, n: int):
    """f0.walk(c, n) with the checks every series along the orbit of c
    needs: CriticalOrbitDegenerate where the orbit runs through a zero of
    f0', OrbitOverflow where f0' is no longer finite (the orbit has left
    double range)."""
    for j, (der, w) in enumerate(f0.walk(complex(c), n), start=1):
        if der == 0:
            raise CriticalOrbitDegenerate(
                f"(f0^{j})'({c!r}) vanishes: orbit step {j - 1} is critical")
        if not cmath.isfinite(der):
            raise OrbitOverflow(
                f"(f0^{j})'({c!r}) is not finite: the orbit left double range "
                f"by step {j - 1}")
        yield der, w


def _partial_sums(first: complex, terms) -> list[complex]:
    """first, then first plus each term in turn."""
    return list(itertools.accumulate(terms, initial=first))


def levin_series(f0: FiberMap, points, n_terms: int = DEFAULT_TERMS) -> SeriesEvaluation:
    """F(z) = 1 + sum_n z^n / (f0^n)'(c) at each sample point, c = f0(0).

    The series converges on the open unit disk when the fiber has no
    attracting cycle; the verdict certifies nonvanishing on the samples
    only, with a tenfold tail margin.
    """
    _require_unicritical_fiber(f0)
    _require_terms(n_terms)
    if f0.attracting_cycles():
        raise AttractingCyclePresent(
            "fiber map has an attracting cycle; the series has no unit "
            "radius of convergence")
    pts = [complex(p) for p in points]
    if not pts:
        raise PreconditionViolated("need at least one evaluation point")
    if any(abs(p) > 0.95 for p in pts):
        raise PreconditionViolated("evaluation points must satisfy |z| <= 0.95")

    c = f0(0.0 + 0.0j)
    per_point = []
    best = None  # (|F|, value, sums, logs, tail, point)
    for p in pts:
        terms, logs = _reciprocal_derivative_terms(f0, c, n_terms, p)
        sums = _partial_sums(1.0 + 0.0j, terms)
        tail = geometric_tail(logs)
        value = sums[-1]
        per_point.append({
            "point_re": p.real, "point_im": p.imag,
            "value_re": value.real, "value_im": value.imag,
            "tail_estimate": tail,
        })
        if best is None or abs(value) < abs(best[1]):
            best = (p, value, sums, logs, tail)
    min_mod = abs(best[1])
    worst_tail = max(pp["tail_estimate"] for pp in per_point)
    verdict = ("nonvanishing on samples" if min_mod > _MARGIN * worst_tail
               else "possibly vanishing")
    return SeriesEvaluation(
        kind="F_series",
        n_terms=n_terms,
        value=best[1],
        tail_estimate=worst_tail,
        verdict=verdict,
        partial_sums=best[2],
        term_logs=best[3],
        points=pts,
        per_point=per_point,
    )


def x0_constant(map: SkewProductMap, n_terms: int = DEFAULT_TERMS) -> SeriesEvaluation:
    """X0 = sum_i (lambda^k)^i / (f0^i)'(c(0)), the i = 0 term being 1."""
    if map.mode != "unicritical":
        raise PreconditionViolated("X0 is defined for unicritical maps")
    _require_terms(n_terms)
    if find_attracting_cycles(map):
        raise AttractingCyclePresent(
            "fiber map has an attracting cycle; X0 presupposes a cycle-free "
            "fiber")
    f0 = map.f0()
    c = f0(0.0 + 0.0j)
    weight = map.lam**map.k
    terms, logs = _reciprocal_derivative_terms(f0, c, n_terms, weight)
    sums = _partial_sums(1.0 + 0.0j, terms)
    tail = geometric_tail(logs)
    value = sums[-1]
    verdict = "nonzero" if abs(value) > _MARGIN * tail else "near-zero"
    return SeriesEvaluation(
        kind="X0",
        n_terms=n_terms,
        value=value,
        tail_estimate=tail,
        verdict=verdict,
        partial_sums=sums,
        term_logs=logs,
    )


def lyapunov_lower(f0: FiberMap, c: complex | None = None,
                   horizon: int = 400) -> SeriesEvaluation:
    """Lower Lyapunov estimate at c: min over n in [horizon/2, horizon] of
    (1/n) log |(f0^n)'(c)|.  c defaults to f0(0), the critical value of a
    unicritical fiber.

    No cycle gate: the estimate is meaningful (and honestly negative or
    drifting) for parabolic or attracting fibers too.  An escaping orbit
    raises OrbitOverflow at the first non-finite step derivative.
    """
    if horizon < 2:
        raise PreconditionViolated(f"need horizon >= 2, got {horizon}")
    if c is None:
        c = f0(0j)
    log_der = 0.0
    step_logs: list[float] = []
    estimates: list[float] = []  # (1/n) log |(f0^n)'(c)| for n = 1..horizon
    for n, (der, _) in enumerate(_critical_walk(f0, c, horizon), start=1):
        step = math.log(abs(der))
        step_logs.append(step)
        log_der += step
        estimates.append(log_der / n)
    lo = max(1, horizon // 2)
    window_min = min(estimates[lo - 1:])
    return SeriesEvaluation(
        kind="lyapunov",
        n_terms=horizon,
        value=complex(window_min),
        tail_estimate=0.0,
        verdict="positive" if window_min > 0 else "nonpositive",
        partial_sums=estimates,
        term_logs=step_logs,
        n_range=(lo, horizon),
    )


# ---------------------------------------------------------------------------
# multicritical nondegeneracy


def nondegeneracy(map: SkewProductMap, n_terms: int = DEFAULT_TERMS,
                  horizon: int = 1000) -> list[SeriesEvaluation]:
    """Per-critical-value series G(c) + sum_i lambda^i G(f0^i(c))/(f0^i)'(c),
    where G collects the base derivatives of the fiber coefficients at 0.

    Each critical value of f0 gets one report.  The series is evaluated only
    for values the point classifier leaves undecided on the invariant line
    (values inside a basin get verdict "not_on_julia"); a fiber whose
    coefficients do not depend on the base at all has G identically zero and
    every report flagged "degenerate".  Transversality of the critical set
    against the invariant line rides along as the simple-root margin of each
    critical point.
    """
    from .fatou import classify_point

    if map.mode != "general":
        raise PreconditionViolated("nondegeneracy runs on general-mode maps")
    _require_terms(n_terms)
    f0 = map.f0()
    g_coeffs = tuple(map.coeff_deriv_at(i, 0.0 + 0.0j) for i in range(map.degree))
    g_zero = all(c == 0 for c in g_coeffs)

    out: list[SeriesEvaluation] = []
    for root in f0.critical_points():
        cval = f0(root)
        margin = abs(f0.second_deriv(root))
        label = classify_point(map, (0.0, cval), horizon=horizon)
        record = [{
            "root_re": root.real, "root_im": root.imag,
            "critical_value_re": cval.real, "critical_value_im": cval.imag,
            "simple_root_margin": margin,
            "line_label": label,
        }]
        if label != "undecided":
            out.append(SeriesEvaluation(
                kind="nondegeneracy", n_terms=0, value=0.0 + 0.0j,
                tail_estimate=math.inf, verdict="not_on_julia",
                per_point=record))
            continue
        terms, logs = [], []
        inv, log_inv = 1.0 + 0.0j, 0.0
        for i, (der, w) in enumerate(_critical_walk(f0, cval, n_terms), start=1):
            if not cmath.isfinite(w):  # the walk checks w only at the next step
                raise OrbitOverflow(f"f0^{i}({cval!r}) is not finite: the orbit "
                                    f"left double range by step {i}")
            inv /= der
            log_inv -= math.log(abs(der))
            gval = _poly_eval(g_coeffs, w)
            terms.append(map.lam**i * gval * inv)
            mag = abs(map.lam) ** i * abs(gval)
            logs.append(math.log(mag) + log_inv if mag > 0 else -math.inf)
        sums = _partial_sums(_poly_eval(g_coeffs, cval), terms)
        value = sums[-1]
        tail = geometric_tail(logs)
        if g_zero:
            verdict = "degenerate"
        elif abs(value) > _MARGIN * tail:
            verdict = "nonzero"
        else:
            verdict = "near-zero"
        out.append(SeriesEvaluation(
            kind="nondegeneracy",
            n_terms=n_terms,
            value=value,
            tail_estimate=tail,
            verdict=verdict,
            partial_sums=sums,
            term_logs=logs,
            per_point=record,
        ))
    return out
