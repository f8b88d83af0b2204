"""Empirical audits of the vertical-derivative lower bounds.

Each audit scans sampled orbits for the (start, n) pairs satisfying a
statement's hypotheses, strips the statement's right-hand side from the
observed derivative, and reports the minimum leftover ratio as the fitted
constant.  Statements asserting constant 1 additionally count how often
the ratio dips below 1 (allowing 1e-9 relative rounding slack).

Statement tags:
  eq_1dim_der  |Df0^n(w)| >= C lam0^n min_{j<n} |f0^j(w)|^{d-1}
  prop21i      orbit stays >= delta through n  -> kappa lam0^n
  prop21ii     dip below delta, first return to <= delta  -> constant 1
  prop21iii    |f0^j(w)| >= |f0^n(w)| for j < n  -> kappa0 lam0^n
  thm12_main   tame orbit  -> C lam0^n min_{i<n} |w_i|^{d-1}
  thm12_min    tame + |w_n| minimal  -> C lam0^n
  lem31/lem32  two-dimensional delta-floor variants of prop21i/iii
  lem33        one-dimensional small-return variant (constant 1)
  lem34        tame small-return bound (constant 1)
  lem25        departure from the critical value at rate delta^{-(d-1)}
  lem26        minimal return time to the critical ball (Przytycki floor)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mc
from .binding import _bind, _ranges, mu_constants
from .core import OrbitTrace, SkewProductMap, _Orbits, find_attracting_cycles, iterate_block
from .errors import (
    AttractingCyclePresent,
    EmptyGrid,
    PreconditionViolated,
)
from .fiber import FiberMap

REL_SLACK = 1e-9
_LOG_FLOOR = math.log1p(-REL_SLACK)
_ABS_CAP = 1e50  # orbits past this stop contributing (ratios uncompetitive)


@dataclass
class BoundAudit:
    """Outcome of one statement's scan over a sample batch."""

    statement: str
    lambda0: float
    delta: float | None
    samples: int
    fitted_constant: float
    min_ratio_location: dict | None
    violations: int
    passed: bool

    def to_json(self) -> dict:
        return {
            "statement": self.statement,
            "lambda0": self.lambda0,
            "delta": self.delta,
            "samples": self.samples,
            "fitted_constant": self.fitted_constant,
            "min_ratio_location": self.min_ratio_location,
            "violations": self.violations,
        }


class _Acc:
    """Running minimum over recorded (start, n) ratios, in log scale."""

    def __init__(self, statement: str, lambda0: float, delta: float | None,
                 constant_one: bool = False):
        self.statement = statement
        self.lambda0 = lambda0
        self.delta = delta
        self.constant_one = constant_one
        self.count = 0
        self.violations = 0
        self.min_log = math.inf
        self.loc: dict | None = None

    def add(self, start_idx: int, ns: np.ndarray, ratio_logs: np.ndarray,
            sel: np.ndarray | None = None) -> None:
        """Ratios at steps ns of start start_idx or, in 2-D, of the starts
        start_idx + column; sel marks the admitted pairs.  Ties go to the
        earliest start, then the earliest n."""
        if ratio_logs.ndim == 1:
            ratio_logs = ratio_logs[:, None]
        # exact critical hits make both sides vanish; drop those pairs
        ok = np.isfinite(ratio_logs) | np.isposinf(ratio_logs)
        if sel is not None:
            ok &= sel
        count = int(np.count_nonzero(ok))
        if count == 0:
            return
        self.count += count
        masked = np.where(ok, ratio_logs, np.inf)
        c, r = divmod(int(np.argmin(masked.T)), masked.shape[0])  # start-major
        if masked[r, c] < self.min_log:
            self.min_log = float(masked[r, c])
            self.loc = {"start": start_idx + c, "n": int(ns[r])}
        if self.constant_one:
            self.violations += int(np.count_nonzero(masked < _LOG_FLOOR))

    def to_audit(self) -> BoundAudit:
        fitted = math.exp(self.min_log) if self.count else math.nan
        passed = self.count > 0 and math.isfinite(fitted) and fitted > 0
        return BoundAudit(
            statement=self.statement,
            lambda0=self.lambda0,
            delta=self.delta,
            samples=self.count,
            fitted_constant=fitted,
            min_ratio_location=self.loc,
            violations=self.violations,
            passed=passed,
        )


def _check_lambda0(lambda0: float, lam: complex | None = None) -> None:
    if not 0.0 < lambda0 < 1.0:
        raise PreconditionViolated(f"lambda0 must lie in (0, 1), got {lambda0}")
    if lam is not None and abs(lam) >= lambda0:
        raise PreconditionViolated(
            f"need |lambda| < lambda0, got |lambda|={abs(lam)} vs lambda0={lambda0}"
        )


# ---------------------------------------------------------------------------
# one-dimensional audits


def audit_onedim(
    f0: FiberMap,
    samples,
    n_max: int,
    lambda0: float,
    delta: float,
) -> dict[str, BoundAudit]:
    """Audit the four one-dimensional lower bounds along fiber orbits.

    Returns {statement: audit} for eq_1dim_der, prop21i, prop21ii,
    prop21iii.  Orbits that blow past the working cap stop contributing;
    their ratios grow without bound and never attain the minimum.
    """
    _check_lambda0(lambda0)
    if delta <= 0:
        raise PreconditionViolated(f"delta must be positive, got {delta}")
    if f0.attracting_cycles():
        raise AttractingCyclePresent("fiber polynomial has an attracting cycle")

    w0 = np.asarray(samples, dtype=complex).ravel()
    d = f0.degree
    log_l0 = math.log(lambda0)
    log_delta = math.log(delta)

    accs = {
        "eq_1dim_der": _Acc("eq_1dim_der", lambda0, None),
        "prop21i": _Acc("prop21i", lambda0, delta),
        "prop21ii": _Acc("prop21ii", lambda0, delta, constant_one=True),
        "prop21iii": _Acc("prop21iii", lambda0, delta),
    }
    for first in range(0, len(w0), mc.BLOCK_SIZE):
        # per block: log |w_n| and log |Df0^n| in row n, until the working cap
        block = w0[first:first + mc.BLOCK_SIZE]
        logw = np.full((n_max + 1, len(block)), np.nan)
        logd = np.full((n_max + 1, len(block)), np.nan)
        lengths = np.ones(len(block), dtype=int)
        orbits = _Orbits(f0, None, block, bound=_ABS_CAP, factors=True)
        orbits.retire(~(orbits.absw <= _ABS_CAP))
        with np.errstate(divide="ignore"):
            logw[0] = np.log(np.abs(block))
            logd[0] = 0.0
            for n in orbits.steps(n_max):
                idx = orbits.idx
                logd[n, idx] = logd[n - 1, idx] + np.log(np.abs(orbits.factor))
                logw[n, idx] = np.log(orbits.absw)
                lengths[idx] = n + 1
        rows = int(lengths.max())
        if rows < 2:
            continue
        # one reduction per block: row r is n = r + 1, column c is start
        # first + c, and a start's pairs are its steps before the cap
        logw, logd = logw[:rows], logd[:rows]
        ns = np.arange(1, rows)
        alive = ns[:, None] < lengths
        lw_n = logw[1:]
        pm0 = np.minimum.accumulate(logw[:-1], axis=0)  # min over j < n
        mids = np.full_like(lw_n, np.inf)  # min over 0 < j < n
        mids[1:] = np.minimum.accumulate(logw[1:-1], axis=0)
        with np.errstate(invalid="ignore"):
            base = logd[1:] - ns[:, None] * log_l0
            accs["eq_1dim_der"].add(first, ns, base - (d - 1) * pm0, alive)
            accs["prop21i"].add(first, ns, base, alive & (pm0 >= log_delta))
            accs["prop21iii"].add(first, ns, base, alive & (pm0 >= lw_n))
            # dip-and-return: |w| < delta, middles > delta, |f0^n(w)| <= delta
            clamp = (d - 1) * np.minimum(0.0, logw[0] - lw_n)
            accs["prop21ii"].add(
                first, ns, base - clamp,
                alive & (logw[0] < log_delta) & (lw_n <= log_delta) & (mids > log_delta))

    return {k: a.to_audit() for k, a in accs.items()}


# ---------------------------------------------------------------------------
# trace scans (two-dimensional statements)


def _trace_arrays(trace: OrbitTrace):
    """Per-trace log data and the tame prefix length."""
    with np.errstate(divide="ignore"):
        logw = np.log(np.abs(trace.ws))
    logd = trace.log_vder
    flags = np.asarray(trace.tame_flags, dtype=bool)
    not_tame = np.nonzero(~flags)[0]
    tame_len = int(not_tame[0]) if len(not_tame) else len(flags)
    return logw, logd, tame_len


def audit_tame(
    map: SkewProductMap,
    traces,
    lambda0: float,
) -> tuple[BoundAudit, BoundAudit]:
    """Audit the two tame-orbit lower bounds over maximal tame prefixes.

    Returns (thm12_main, thm12_min); the latter restricts to steps whose
    fiber magnitude is minimal over the segment so the bound is a clean
    exponential floor.
    """
    _check_lambda0(lambda0, map.lam)
    if find_attracting_cycles(map):
        raise AttractingCyclePresent("fiber polynomial has an attracting cycle")
    log_l0 = math.log(lambda0)
    d = map.degree
    main = _Acc("thm12_main", lambda0, None)
    amin = _Acc("thm12_min", lambda0, None)
    for idx, trace in enumerate(traces):
        if abs(trace.z0) >= map.r0:
            continue
        logw, logd, tame_len = _trace_arrays(trace)
        if tame_len < 1 or len(trace) < 2:
            continue
        n_hi = min(tame_len, len(trace) - 1)
        ns = np.arange(1, n_hi + 1)
        pm0 = np.minimum.accumulate(logw)[ns - 1]
        base = logd[ns] - ns * log_l0
        main.add(idx, ns, base - (d - 1) * pm0)
        sel = logw[ns] <= pm0
        amin.add(idx, ns[sel], base[sel])
    return main.to_audit(), amin.to_audit()


def audit_return(
    map: SkewProductMap,
    traces,
    lambda0: float,
    delta0: float,
    eta0: float | None = None,
) -> BoundAudit:
    """Audit the tame small-return bound (constant 1).

    Hypotheses per (trace, n): tame through n, |z0| < eta0 (default r0/10),
    |w0| <= delta0, |w_n| <= delta0, and |w_j| >= |w_n| for 0 < j < n.
    """
    _check_lambda0(lambda0, map.lam)
    if delta0 <= 0:
        raise PreconditionViolated(f"delta0 must be positive, got {delta0}")
    if eta0 is None:
        eta0 = map.r0 / 10.0
    log_l0 = math.log(lambda0)
    log_d0 = math.log(delta0)
    d = map.degree
    acc = _Acc("lem34", lambda0, delta0, constant_one=True)
    for idx, trace in enumerate(traces):
        if abs(trace.z0) >= eta0:
            continue
        logw, logd, tame_len = _trace_arrays(trace)
        if logw[0] > log_d0 or tame_len < 1 or len(trace) < 2:
            continue
        n_hi = min(tame_len, len(trace) - 1)
        ns = np.arange(1, n_hi + 1)
        lw_n = logw[ns]
        mids = np.full(len(ns), np.inf)
        if len(ns) > 1:
            mids[1:] = np.minimum.accumulate(logw[1:n_hi])
        sel = (lw_n <= log_d0) & (mids >= lw_n)
        if not np.any(sel):
            continue
        base = logd[ns[sel]] - ns[sel] * log_l0
        clamp = (d - 1) * np.minimum(0.0, logw[0] - lw_n[sel])
        acc.add(idx, ns[sel], base - clamp)
    return acc.to_audit()


def audit_side_lemmas(
    map: SkewProductMap,
    traces,
    lambda0: float,
    delta: float,
    eta: float | None = None,
) -> dict[str, BoundAudit]:
    """Delta-floor and small-return variants emitted from the tame scan.

    lem31: tame, |z0| < eta, |w_j| >= delta for j < n  -> kappa lam0^n.
    lem32: lem31 plus |w_n| <= delta                   -> kappa0 lam0^n.
    lem33: invariant-line traces only; |w_0| < 2 delta, |w_n| < 2 delta,
           middles > delta/2 -> lam0^n min(1, (|w0|/|w_n|)^{d-1}), constant 1.
    """
    _check_lambda0(lambda0, map.lam)
    if delta <= 0:
        raise PreconditionViolated(f"delta must be positive, got {delta}")
    if eta is None:
        eta = map.r0 / 10.0
    log_l0 = math.log(lambda0)
    log_delta = math.log(delta)
    d = map.degree
    a31 = _Acc("lem31", lambda0, delta)
    a32 = _Acc("lem32", lambda0, delta)
    a33 = _Acc("lem33", lambda0, delta, constant_one=True)
    for idx, trace in enumerate(traces):
        logw, logd, tame_len = _trace_arrays(trace)
        if tame_len < 1 or len(trace) < 2:
            continue
        n_hi = min(tame_len, len(trace) - 1)
        ns = np.arange(1, n_hi + 1)
        pm0 = np.minimum.accumulate(logw)[ns - 1]
        lw_n = logw[ns]
        base = logd[ns] - ns * log_l0
        if abs(trace.z0) < eta:
            sel = pm0 >= log_delta
            a31.add(idx, ns[sel], base[sel])
            sel2 = sel & (lw_n <= log_delta)
            a32.add(idx, ns[sel2], base[sel2])
        if trace.z0 == 0 and logw[0] < log_delta + math.log(2.0):
            mids = np.full(len(ns), np.inf)
            if len(ns) > 1:
                mids[1:] = np.minimum.accumulate(logw[1:n_hi])
            sel = (lw_n < log_delta + math.log(2.0)) & (mids > log_delta - math.log(2.0))
            clamp = (d - 1) * np.minimum(0.0, logw[0] - lw_n[sel])
            a33.add(idx, ns[sel], base[sel] - clamp)
    return {a.statement: a.to_audit() for a in (a31, a32, a33)}


# ---------------------------------------------------------------------------
# critical-value departure and return floors


def audit_critical_value_departure(
    map: SkewProductMap,
    starts,
    lambda0: float,
    mu: float | None = None,
    horizon: int = 1000,
) -> BoundAudit:
    """For starts near the critical value, find the step achieving the
    departure bound |Df^n(v)| >= lam0^n delta^{-(d-1)}.

    delta = max(|w1 - c(0)|, |z1|^k)^{1/d}; starts with delta = 0 or
    delta >= 0.05 are excluded.  A sample fails only if no n up to its
    binding time against the critical value reaches ratio >= 1 - 1e-9.
    """
    _check_lambda0(lambda0, map.lam)
    if mu is None:
        mu = mu_constants(map.degree)[0]
    c0 = map.c0_origin
    d = map.degree
    log_l0 = math.log(lambda0)
    acc = _Acc("lem25", lambda0, 0.05, constant_one=True)
    pts = np.array([(z, w) for z, w in starts], dtype=complex).reshape(-1, 2)
    z1, w1 = pts[:, 0], pts[:, 1]
    # delta per start with CPython's float ** and max, as stated above
    gaps = np.hypot(w1.real - c0.real, w1.imag - c0.imag).tolist()
    radii = np.hypot(z1.real, z1.imag).tolist()
    deltas = np.array([max(g, r ** map.k) ** (1.0 / d) for g, r in zip(gaps, radii)])
    admitted = np.flatnonzero(~((deltas == 0.0) | (deltas >= 0.05)))
    acc.count = len(admitted)
    if not len(admitted):
        return acc.to_audit()

    # every start binds against the one critical-value orbit
    h = _bind(map, z1[admitted], w1[admitted], np.zeros(1, dtype=complex),
              np.array([c0]), mu, horizon, fields=("log_vder_x",))
    last = h.last
    pos = _ranges(h.start[:-1] + 1, last)
    pair = np.repeat(np.arange(len(admitted)), last)
    ns = pos - h.start[pair]
    log_delta = np.array([math.log(x) for x in deltas[admitted].tolist()])
    ratio_logs = h.data["log_vder_x"][pos] - ns * log_l0 + (d - 1) * log_delta[pair]
    # the first step up to the binding time that reaches the bound
    hits = np.flatnonzero(ratio_logs >= _LOG_FLOOR)
    found, first = np.unique(pair[hits], return_index=True)
    acc.violations = len(admitted) - len(found)
    if len(found):
        vals = ratio_logs[hits[first]]
        k = int(np.argmin(vals))  # ties go to the earliest start
        if vals[k] < acc.min_log:
            acc.min_log = float(vals[k])
            acc.loc = {"start": int(admitted[found[k]]), "n": int(ns[hits[first[k]]])}
    return acc.to_audit()


@dataclass
class ReturnReport:
    """Minimal return time of admissible starts to the critical ball."""

    statement: str
    epsilon: float
    horizon: int
    grid_size: int
    admitted: int
    n_min: int | None
    location: dict | None
    fitted_constant: float | None

    def to_json(self) -> dict:
        # same wire shape as BoundAudit; epsilon rides in the delta slot
        return {
            "statement": self.statement,
            "lambda0": None,
            "delta": self.epsilon,
            "samples": self.admitted,
            "fitted_constant": self.fitted_constant,
            "min_ratio_location": self.location,
            "violations": 0,
        }


def przytycki_return(
    map: SkewProductMap,
    epsilon: float,
    grid,
    horizon: int = 1000,
) -> ReturnReport:
    """Scan starts with |z0|^k <= eps, |w0| <= eps for the earliest n >= 1
    with |xi_n| <= eps; fitted constant is n_min / log(1/eps)."""
    if not 0.0 < epsilon <= 0.1:
        raise PreconditionViolated(f"epsilon must lie in (0, 0.1], got {epsilon}")
    if find_attracting_cycles(map):
        raise AttractingCyclePresent("fiber polynomial has an attracting cycle")
    pts = [(complex(z), complex(w)) for z, w in grid]
    sel = [(z, w) for z, w in pts if abs(z) ** map.k <= epsilon and abs(w) <= epsilon]
    if not sel:
        raise EmptyGrid("no grid start satisfies the smallness hypotheses")
    z0s = np.array([z for z, _ in sel])
    w0s = np.array([w for _, w in sel])

    first = np.full(len(sel), -1, dtype=int)
    orbits = _Orbits(map, z0s, w0s, bound=max(map.escape_radius * 10.0, 100.0),
                     lam_left=True)
    for n in orbits.steps(horizon):
        hit = orbits.absw <= epsilon
        first[orbits.idx[hit]] = n
        orbits.retire(hit)

    hits = first[first > 0]
    if len(hits) == 0:
        return ReturnReport(
            statement="lem26", epsilon=epsilon, horizon=horizon,
            grid_size=len(pts), admitted=len(sel),
            n_min=None, location=None, fitted_constant=None,
        )
    n_min = int(hits.min())
    at = int(np.nonzero(first == n_min)[0][0])
    return ReturnReport(
        statement="lem26", epsilon=epsilon, horizon=horizon,
        grid_size=len(pts), admitted=len(sel),
        n_min=n_min,
        location={"start": at, "n": n_min},
        fitted_constant=n_min / math.log(1.0 / epsilon),
    )


def critical_ball_grid(map: SkewProductMap, epsilon: float, per_axis: int = 100):
    """Real lattice inside {|z|^k <= eps} x {|w| <= eps}, centers included.

    Returns stay concentrated near the real locus (off-axis orbits escape
    before re-entering the critical ball), so a real grid probes the
    minimal return time far more efficiently than a complex cloud.
    """
    rz = epsilon ** (1.0 / map.k)
    zs = np.linspace(-rz, rz, per_axis)
    ws = np.linspace(-epsilon, epsilon, per_axis)
    return [(z, w) for z in zs for w in ws]


# ---------------------------------------------------------------------------
# assembly helpers


def sample_traces(
    map: SkewProductMap,
    count: int,
    n: int,
    seed: int,
    z_radius: float | None = None,
    w_radius: float | None = None,
    threads: int = 1,
) -> list[OrbitTrace]:
    """Deterministic random starts iterated to depth n, as traces."""
    if z_radius is None:
        z_radius = 0.9 * map.r0
    if w_radius is None:
        w_radius = 0.9 * map.escape_radius

    def draw(gen: np.random.Generator, m: int) -> np.ndarray:
        return np.column_stack([
            mc.uniform_disk(gen, m, z_radius),
            mc.uniform_disk(gen, m, w_radius),
        ])

    cols = mc.draw_blocks(seed, "trace_starts", count, draw, threads=threads)
    block = iterate_block(map, cols[:, 0], cols[:, 1], n)
    return list(block.to_traces(map))
