"""Monte Carlo estimates of slow-approach statistics and exclusion sets.

Three samplers share one report shape: the fraction of points whose fiber
coordinate stays above the e^(-alpha*n) floor, the area of the sublevel
sets {|xi_n| < e^(-alpha*n)} on a fixed vertical line, and the annulus
fraction excluded at each first-failure index, with log-linear decay fits
over the populated cells.  A separate deterministic report compares the
base derivative of the fiber coordinate against its expected leading term.

All sampling runs through the block-keyed generator in `mc`, so estimates
depend only on (seed, samples).
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import SkewProductMap, _Orbits
from .errors import (
    BaseOutsideDomain,
    CriticalHit,
    EmptySample,
    OrbitOverflow,
    OriginPeriodic,
    PreconditionViolated,
    RateTooLarge,
    ZeroBase,
)
from .mc import BATCH_SIZE, Stream, draw_batches, uniform_annulus, uniform_disk

MEMBERSHIP_HORIZON = 1000  # first-failure search cap; later failures count as none
_PERIODIC_STEPS = 1000
_PERIODIC_TOL = 1e-10


@dataclass
class EstimateReport:
    """One Monte Carlo estimate (or fit) with its provenance.

    quantity is one of slow_fraction, E_area, K_area, decay_fit, xl_ratio.
    For indicator estimates std_error is the sample standard deviation over
    sqrt(samples); for decay_fit rows estimate mirrors fitted_exponent
    (0.0 when no fit was possible) and std_error is the slope's standard
    error.
    """

    quantity: str
    parameters: dict
    samples: int
    estimate: float
    std_error: float
    fitted_exponent: float | None
    seed: int

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "parameters": self.parameters,
            "samples": self.samples,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "fitted_exponent": self.fitted_exponent,
            "seed": self.seed,
        }


def _indicator_se(hits: float, total: int) -> float:
    if total < 2:
        return 0.0
    p = hits / total
    return math.sqrt(p * (1.0 - p) / (total - 1))


def _fit_decay(xs, log_ys):
    """Least-squares slope of log_ys against xs; returns (-slope, r2, se)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(log_ys, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    dof = len(x) - 2
    sxx = float(np.sum((x - np.mean(x)) ** 2))
    se = math.sqrt(ss_res / dof / sxx) if dof > 0 and sxx > 0 else 0.0
    return -float(slope), r2, se


def _decay_fit_row(populated, params: dict, samples: int,
                   seed: int) -> EstimateReport:
    """Decay-fit row over the populated (index, fraction) cells; with fewer
    than two of them fitted_exponent and r_squared are None."""
    params = {**params, "nonzero_cells": len(populated), "r_squared": None}
    fitted, fit_se = None, 0.0
    if len(populated) >= 2:
        fitted, params["r_squared"], fit_se = _fit_decay(
            [x for x, _ in populated], [math.log(f) for _, f in populated])
    return EstimateReport(
        quantity="decay_fit",
        parameters=params,
        samples=samples,
        estimate=fitted if fitted is not None else 0.0,
        std_error=fit_se,
        fitted_exponent=fitted,
        seed=seed,
    )


def _origin_periodic(map: SkewProductMap) -> bool:
    # the base coordinate of (0,0) stays 0, so return means |w_n| small
    w = 0.0 + 0.0j
    for _ in range(_PERIODIC_STEPS):
        w = map.fiber_value(0.0, w)
        if abs(w) < _PERIODIC_TOL:
            return True
        if abs(w) > map.escape_radius:
            return False
    return False


def slow_approach_stats(map: SkewProductMap, alpha: float, burn_in: int,
                        horizon: int, samples: int, seed: int) -> EstimateReport:
    """Fraction of non-escaping starts with |w_n| >= e^(-alpha*n) for every
    n in [burn_in, horizon].

    Starts are uniform in B(0, r0) x B(0, escape_radius); orbits that
    escape within the horizon are discarded before the fraction is taken.
    No threshold is tested before step max(burn_in, 1), so the run has two
    phases.  Each draw batch of mc.BATCH_SIZE starts steps up to that step
    with only escapes retiring; most starts escape there.  The survivors'
    (z, w) are pooled in draw order, and each full pool (and the last,
    partial one) steps on to the horizon with the threshold tests.  Every
    orbit sees the same elementwise steps as in one batch, and kept and
    hit counts add up, so the pooling changes no value.
    """
    if alpha <= 0:
        raise PreconditionViolated(f"need alpha > 0, got {alpha}")
    if not 0 <= burn_in < horizon:
        raise PreconditionViolated(
            f"need 0 <= burn_in < horizon, got {burn_in}, {horizon}")
    if samples <= 0:
        raise EmptySample(f"need samples > 0, got {samples}")
    if _origin_periodic(map):
        raise OriginPeriodic(
            "(0,0) returns to itself within tolerance; slow-approach "
            "statistics are undefined")

    def draw(gen: Stream, count: int) -> np.ndarray:
        z = uniform_disk(gen, count, map.r0)
        w = uniform_disk(gen, count, map.escape_radius)
        return np.stack([z, w], axis=1)

    head = max(burn_in, 1) - 1  # steps before the first threshold test
    kept = hits = 0

    def tail(z: np.ndarray, w: np.ndarray) -> None:
        nonlocal kept, hits
        orbits = _Orbits(map, z, w, bound=map.escape_radius)
        ok = np.ones(len(w), dtype=bool)
        for n in orbits.steps(horizon - head):
            n += head
            ok[orbits.idx[orbits.absw < math.exp(-alpha * n)]] = False
        kept += len(orbits.idx)
        hits += int(np.count_nonzero(ok[orbits.idx]))

    pool = np.empty((2, BATCH_SIZE), dtype=complex)  # rows z and w
    fill = 0
    for _, pts in draw_batches(seed, "slow", samples, draw):
        orbits = _Orbits(map, pts[:, 0], pts[:, 1], bound=map.escape_radius)
        del pts  # orbits copied w; its z, a view, holds the draw only until a step
        for _ in orbits.steps(head):
            pass
        live = len(orbits.idx)  # a one-start batch keeps its z of length 1
        rest = np.stack([orbits.z[:live], orbits.w])
        del orbits  # its step buffers are batch-sized: free them before the tail
        while rest.shape[1]:
            take = min(BATCH_SIZE - fill, rest.shape[1])
            pool[:, fill:fill + take] = rest[:, :take]
            rest = rest[:, take:]
            fill += take
            if fill == BATCH_SIZE:
                tail(*pool)
                fill = 0
    if fill:
        tail(*pool[:, :fill])
    if kept == 0:
        raise EmptySample("every sampled orbit escaped within the horizon")
    frac = hits / kept
    return EstimateReport(
        quantity="slow_fraction",
        parameters={"alpha": alpha, "burn_in": burn_in, "horizon": horizon,
                    "requested_samples": samples},
        samples=kept,
        estimate=frac,
        std_error=_indicator_se(frac * kept, kept),
        fitted_exponent=None,
        seed=seed,
    )


def _normalize_grid(ns, name: str, minimum: int) -> list[int]:
    if isinstance(ns, (int, np.integer)):
        ns = [int(ns)]
    grid = sorted({int(n) for n in ns})
    if not grid:
        raise PreconditionViolated(f"{name} grid is empty")
    if grid[0] < minimum:
        raise PreconditionViolated(f"{name} values must be >= {minimum}, got {grid[0]}")
    return grid


def e_set_area(map: SkewProductMap, z: complex, alpha: float, ns,
               samples: int, seed: int) -> list[EstimateReport]:
    """Area fraction of {w in B(0,R) : |xi_n(z,w)| < e^(-alpha*n)} for each
    n on the grid, plus a trailing decay-fit row.

    The w-draws are stepped in batches of mc.BATCH_SIZE; each batch adds its
    hit count at every grid n, and a cell's fraction is its summed count
    over samples, so the batching changes no value.  The fit regresses
    log-fraction on n over the cells with at least one hit; with fewer than
    two such cells the fit row carries fitted_exponent None.
    """
    z = complex(z)
    if not abs(z) < map.r0:  # NaN fails too
        raise BaseOutsideDomain(f"|z| = {abs(z):.6g} >= r0 = {map.r0:.6g}")
    if alpha < 0:
        raise PreconditionViolated(f"need alpha >= 0, got {alpha}")
    if samples <= 0:
        raise EmptySample(f"need samples > 0, got {samples}")
    grid = _normalize_grid(ns, "n", 0)

    def draw(gen: Stream, count: int) -> np.ndarray:
        return uniform_disk(gen, count, map.escape_radius)

    # cells past the last live orbit stay empty
    hits = dict.fromkeys(grid, 0)
    for _, w in draw_batches(seed, "eset", samples, draw):
        orbits = _Orbits(map, np.array([z]), w, bound=map.escape_radius)
        if grid[0] == 0:
            hits[0] += int(np.count_nonzero(orbits.absw < 1.0))
        for n in orbits.steps(grid[-1]):
            if n in hits:
                hits[n] += int(np.count_nonzero(orbits.absw < math.exp(-alpha * n)))
        del orbits  # its step buffers are batch-sized: free them before the next draw
    fractions = {n: hits[n] / samples for n in grid}

    reports = []
    for n in grid:
        frac = fractions[n]
        reports.append(EstimateReport(
            quantity="E_area",
            parameters={"alpha": alpha, "n": n, "z_re": z.real, "z_im": z.imag},
            samples=samples,
            estimate=frac,
            std_error=_indicator_se(frac * samples, samples),
            fitted_exponent=None,
            seed=seed,
        ))
    populated = [(n, fractions[n]) for n in grid if fractions[n] > 0]
    reports.append(_decay_fit_row(
        populated, {"alpha": alpha, "z_re": z.real, "z_im": z.imag,
                    "cells": len(grid)}, samples, seed))
    return reports


def exclusion_rate(map: SkewProductMap, alpha: float) -> float:
    """The contraction-versus-threshold rate e^(d*alpha) |lambda|^k."""
    return math.exp(map.degree * alpha) * abs(map.lam) ** map.k


def exclusion_area(map: SkewProductMap, alpha: float, m: int, l_values,
                   samples: int, seed: int,
                   horizon: int = MEMBERSHIP_HORIZON) -> list[EstimateReport]:
    """First-failure statistics on the annulus |lambda|^(m+1) r0 <= |z| <
    |lambda|^m r0.  Any m >= 0 is legal: m = 0 is the outermost annulus
    |lambda| r0 <= |z| < r0 of the base domain.

    Each z starts at (z, 0); its first-failure index is the minimal l with
    |xi_l| <= |z|^(k/d) e^(-alpha*l), or none within the horizon (such z,
    escaping ones included, count as never-failing).  The z are drawn and
    stepped in batches of mc.BATCH_SIZE, and each batch adds its
    first-failure counts per l, so every z is counted at exactly one index
    and the per-l fractions partition the never-failing complement exactly,
    whatever the batching.  Returns one K_area row per requested l plus a
    trailing decay-fit row whose parameters carry the never-failing
    fraction and the fit's r_squared.
    """
    rate = exclusion_rate(map, alpha)
    if rate >= 1.0:
        raise RateTooLarge(
            f"e^(d*alpha) |lambda|^k = {rate:.6g} >= 1; thresholds outrun "
            "the base contraction")
    if m < 0:
        raise PreconditionViolated(f"need m >= 0, got {m}")
    if samples <= 0:
        raise EmptySample(f"need samples > 0, got {samples}")
    if horizon < 1:
        raise PreconditionViolated(f"need horizon >= 1, got {horizon}")
    grid = _normalize_grid(l_values, "l", 1)
    if grid[-1] > horizon:
        raise PreconditionViolated(
            f"l = {grid[-1]} exceeds the membership horizon {horizon}")

    r_outer = abs(map.lam) ** m * map.r0
    r_inner = abs(map.lam) * r_outer

    def draw(gen: Stream, count: int) -> np.ndarray:
        return uniform_annulus(gen, count, r_inner, r_outer)

    counts = np.zeros(horizon + 1, dtype=np.int64)  # index 0: never failed
    for _, z0 in draw_batches(seed, "exclusion", samples, draw):
        # the orbits copy their starts, so the zero fiber starts need no
        # array of their own
        orbits = _Orbits(map, z0, np.broadcast_to(0j, len(z0)),
                         bound=map.escape_radius,
                         carry={"thr": np.abs(z0) ** (map.k / map.degree)})
        first_fail = np.zeros(len(z0), dtype=np.int64)
        for l in orbits.steps(horizon):
            fail = orbits.absw <= orbits.carry["thr"] * math.exp(-alpha * l)
            first_fail[orbits.idx[fail]] = l
            orbits.retire(fail)
        counts += np.bincount(first_fail, minlength=horizon + 1)
        del orbits  # its step buffers are batch-sized: free them before the next draw
    never_fraction = counts[0] / samples

    reports = []
    for l in grid:
        frac = counts[l] / samples
        reports.append(EstimateReport(
            quantity="K_area",
            parameters={"alpha": alpha, "m": m, "l": l},
            samples=samples,
            estimate=float(frac),
            std_error=_indicator_se(float(counts[l]), samples),
            fitted_exponent=None,
            seed=seed,
        ))
    populated = [(l, counts[l] / samples) for l in grid if counts[l] > 0]
    reports.append(_decay_fit_row(
        populated, {"alpha": alpha, "m": m, "l_min": grid[0],
                    "l_max": grid[-1], "cells": len(grid),
                    "never_failing_fraction": float(never_fraction),
                    "horizon": horizon}, samples, seed))
    return reports


# ---------------------------------------------------------------------------
# base derivative of the fiber coordinate


@dataclass
class BaseDerivativeReport:
    """Forward-recursion value of X_l = d(xi_l)/dz at (z0, 0) with its
    normalized ratio, leading-term target, and finite-difference check."""

    z0: complex
    l: int
    k: int
    x_l: complex
    denominator: complex  # vertical derivative over steps 1..l-1
    ratio: complex
    x0_value: complex
    target: complex  # k * X0 * z0^(k-1)
    deviation: float
    bound: float  # half of k |X0| |z0|^(k-1)
    within_bound: bool
    sum_form: complex
    recursion_vs_sum_rel: float
    fd_value: complex
    fd_rel_deviation: float
    fd_step: float
    fd_dps: int  # 0 when the difference ran in doubles

    def to_json(self) -> dict:
        return {
            "z0_re": self.z0.real, "z0_im": self.z0.imag,
            "l": self.l, "k": self.k,
            "x_l_re": self.x_l.real, "x_l_im": self.x_l.imag,
            "ratio_re": self.ratio.real, "ratio_im": self.ratio.imag,
            "target_re": self.target.real, "target_im": self.target.imag,
            "deviation": self.deviation,
            "bound": self.bound,
            "within_bound": self.within_bound,
            "recursion_vs_sum_rel": self.recursion_vs_sum_rel,
            "fd_rel_deviation": self.fd_rel_deviation,
            "fd_step": self.fd_step,
            "fd_dps": self.fd_dps,
        }


def _overflow(step: int) -> OrbitOverflow:
    # only doubles overflow: mpmath's exponent range is unbounded
    return OrbitOverflow(
        f"the fiber orbit of (z0, 0) leaves double range at step {step}; "
        "X_l is not double-computable here")


def _in_type(map: SkewProductMap, num) -> SkewProductMap:
    """map with lam and coefficients in the number type num, or map itself."""
    if isinstance(map.lam, num):
        return map
    return replace(
        map, lam=num(map.lam),
        fiber_coeffs=tuple(tuple(num(c) for c in p) for p in map.fiber_coeffs))


def _denominators(map: SkewProductMap, z0: complex, l: int, num, visit=None):
    """The fiber orbit xi_j of (z0, 0) and the vertical derivative
    accumulated over steps 1..l-1, in the number type num (complex, or
    mpmath.mpc at the active precision).  Returns the denominator.
    visit(lam^j, lam^j z0, xi_j, denominator so far, d xi_j^(d-1)) runs at
    each step j before its update and returns further values that must stay
    finite in doubles."""
    map = _in_type(map, num)
    xi = num(0)
    denom = num(1)
    lam_pow = num(1)
    z0 = num(z0)
    zj = lam_pow * z0
    factor = map.dfdw(zj, xi)
    try:
        for j in range(l):
            extra = () if visit is None else visit(lam_pow, zj, xi, denom, factor)
            xi = map.fiber_value(zj, xi)
            lam_pow *= map.lam
            zj = lam_pow * z0
            if j < l - 1:
                factor = map.dfdw(zj, xi)
                if factor == 0:
                    raise CriticalHit(j + 1)
                denom *= factor
            if num is complex and not all(cmath.isfinite(v) for v in (xi, *extra, denom)):
                raise OverflowError  # products overflow silently, powers raise
    except OverflowError:
        raise _overflow(j + 1) from None
    return denom


def _max_denominator(map: SkewProductMap, z0: complex, l: int, num):
    """The largest |denominator| over steps 0..l-1 of _denominators' orbit
    (at least 1, the empty product), which sets the finite-difference step."""
    top = abs(num(1))

    def visit(lam_pow, zj, xi, denom, factor):
        nonlocal top
        top = max(top, abs(denom))
        return ()

    _denominators(map, z0, l, num, visit)
    return top


def _recursion(map: SkewProductMap, z0: complex, l: int, num):
    """X_l, the denominator, and the sum form on _denominators' orbit, in
    the number type num."""
    map = _in_type(map, num)
    x = num(0)
    sum_form = num(0)

    def visit(lam_pow, zj, xi, denom, factor):
        nonlocal x, sum_form
        cp = map.coeff_deriv_at(0, zj)
        sum_form += lam_pow * cp / denom
        x = factor * x + lam_pow * cp
        return (x,)

    denom = _denominators(map, z0, l, num, visit)
    return x, denom, sum_form


def _fd(map: SkewProductMap, z0: complex, l: int, h: float, num) -> complex:
    """Centered difference of xi_l at z0 with step h, in the number type num."""
    map = _in_type(map, num)

    def xi(z):
        w = num(0)
        try:
            for j in range(l):
                w = map.fiber_value(z, w)
                z = z * map.lam
                if num is complex and not cmath.isfinite(w):
                    raise OverflowError
        except OverflowError:
            raise _overflow(j + 1) from None
        return w

    z0, h = num(z0), num(h)
    return complex((xi(z0 + h) - xi(z0 - h)) / (2 * h))


def fiber_base_derivative(map: SkewProductMap, z0: complex, l: int,
                          x0_terms: int = 120) -> BaseDerivativeReport:
    """X_l by the forward recursion, its ratio to the vertical derivative,
    and the comparison against the leading term k X0 z0^(k-1).

    The recursion X_j = d xi_{j-1}^{d-1} X_{j-1} + lambda^{j-1} c'(lambda^{j-1} z0)
    starts from X_0 = 0 (the fiber start is constant in z).  The ratio
    divides by the vertical derivative accumulated over steps 1..l-1, which
    must not vanish.  One recursion and one finite difference run in either
    number type.  For l <= 8 they run in doubles with the centered-difference
    step 1e-9 |z0|.  Deeper l is not double-computable: orbits brushing the
    critical point amplify rounding by the ratio of the largest to the
    smallest intermediate derivative product, so recursion, sum form, and
    finite difference all run in mpmath at extended precision, with the step
    scaled down by the largest intermediate product.
    """
    from .series import x0_constant

    if map.mode != "unicritical":
        raise PreconditionViolated(
            "base-derivative comparison runs on unicritical maps")
    z0 = complex(z0)
    if z0 == 0:
        raise ZeroBase("z0 must be nonzero")
    if not abs(z0) < map.r0:
        raise BaseOutsideDomain(f"|z0| = {abs(z0):.6g} >= r0 = {map.r0:.6g}")
    if l < 1:
        raise PreconditionViolated(f"need l >= 1, got {l}")
    # X0's cycle gate goes first: on a fiber with an attracting cycle the
    # denominator can underflow to zero before the ratio is taken
    x0 = x0_constant(map, x0_terms).value

    if l <= 8:
        num, h, dps = complex, 1e-9 * abs(z0), 0
        precision = contextlib.nullcontext()
    else:
        from mpmath import mp, mpc

        num = mpc
        map = _in_type(map, num)  # one copy for all three runs
        with mp.workdps(60):
            # only the orbit and its denominators size the step
            max_denom = _max_denominator(map, z0, l, num)
            max_denom_f = float(min(max_denom, mp.mpf("1e300")))
        h = abs(z0) * min(1e-9, 1e-3 / max(1.0, max_denom_f))
        dps = max(60, int(math.ceil(25.0 - math.log10(h / abs(z0)))))
        precision = mp.workdps(dps)
    with precision:
        x, denom, sum_form = _recursion(map, z0, l, num)
        fd = _fd(map, z0, l, h, num)
        x_c, denom_c, sum_c = complex(x), complex(denom), complex(sum_form)

    ratio = x_c / denom_c
    sum_rel = abs(ratio - sum_c) / max(abs(ratio), abs(sum_c), 1e-300)
    fd_rel = abs(fd - x_c) / max(abs(x_c), 1e-300)

    target = map.k * x0 * z0 ** (map.k - 1)
    deviation = abs(ratio - target)
    bound = 0.5 * map.k * abs(x0) * abs(z0) ** (map.k - 1)

    return BaseDerivativeReport(
        z0=z0, l=l, k=map.k,
        x_l=x_c, denominator=denom_c, ratio=ratio,
        x0_value=x0, target=target,
        deviation=deviation, bound=bound, within_bound=deviation <= bound,
        sum_form=sum_c, recursion_vs_sum_rel=sum_rel,
        fd_value=fd, fd_rel_deviation=fd_rel, fd_step=h, fd_dps=dps,
    )


# ---------------------------------------------------------------------------
# serialization


def reports_to_csv(reports: list[EstimateReport]) -> str:
    """Uniform CSV: fixed columns plus a JSON parameters cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["quantity", "samples", "estimate", "std_error",
                     "fitted_exponent", "seed", "parameters"])
    for r in reports:
        writer.writerow([
            r.quantity,
            r.samples,
            f"{r.estimate:.17g}",
            f"{r.std_error:.17g}",
            "" if r.fitted_exponent is None else f"{r.fitted_exponent:.17g}",
            r.seed,
            json.dumps(r.parameters, sort_keys=True),
        ])
    return buf.getvalue()


def decay_cells_csv(reports: list[EstimateReport]) -> str:
    """Two-column (index, log_fraction) CSV over the populated area cells."""
    rows = [r for r in reports if r.quantity in ("K_area", "E_area") and r.estimate > 0]
    label = "l" if any(r.quantity == "K_area" for r in rows) else "n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([label, "log_fraction"])
    for r in rows:
        writer.writerow([r.parameters[label], f"{math.log(r.estimate):.17g}"])
    return buf.getvalue()
