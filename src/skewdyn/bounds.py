"""Empirical audits of the vertical-derivative lower bounds.

Each audit scans sampled orbits for the (start, n) pairs satisfying a
statement's hypotheses, strips the statement's right-hand side from the
observed derivative, and reports the minimum leftover ratio as the fitted
constant.  Statements asserting constant 1 additionally count how often
the ratio dips below 1 (allowing 1e-9 relative rounding slack).

Every orbit statement runs on one row-streamed prefix scan (`_scan`).  It
folds the orbits of a batch into the statements one step n at a time,
keeping only carry arrays over the live orbits: log |Df^n|, the running
minima of log |w_j| over j < n and over 0 < j < n, and log |w_0|.  No
(n+1) x count history is stored.  The rows come from stepping the starts
in `core._Orbits` (a `TraceStarts` batch, or the fiber starts of the
one-dimensional audits), or from the stored columns of a `TraceBlock`.
An orbit leaves the carry once it has no further pairs: a trace at the
end of its maximal tame prefix or past the escape radius, a fiber orbit
past the working cap.  Each accumulator keeps the least (ratio, start, n)
in lexicographic order, so ties go to the earliest start, then the
earliest n.

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
from .core import SkewProductMap, TraceBlock, _Orbits, find_attracting_cycles
from .errors import (
    AttractingCyclePresent,
    BaseOutsideDomain,
    EmptyGrid,
    HorizonNonPositive,
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

    def add(self, starts: np.ndarray, n: int, ratio_logs: np.ndarray,
            sel: np.ndarray | None = None) -> None:
        """Ratios at step n of the given starts (batch positions, ascending);
        sel marks the admitted pairs (all when None).  The minimum is the
        least (ratio, start, n) in lexicographic order."""
        # exact critical hits make both sides vanish; drop those pairs
        ok = ratio_logs > -np.inf
        if sel is not None:
            ok &= sel
        count = int(np.count_nonzero(ok))
        if count == 0:
            return
        self.count += count
        masked = np.where(ok, ratio_logs, np.inf)
        c = int(np.argmin(masked))  # the first minimum: the earliest start
        value, start = float(masked[c]), int(starts[c])
        if value < self.min_log or (
                value == self.min_log and self.loc is not None
                and (start, n) < (self.loc["start"], self.loc["n"])):
            self.min_log = value
            self.loc = {"start": start, "n": int(n)}
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
# the row-streamed prefix scan shared by every orbit statement


@dataclass(frozen=True)
class TraceStarts:
    """A batch of starts (z0, w0) and the horizon n the audits step them to.

    The tame, return and side audits step these themselves, one row at a
    time, so no history is stored; `iterate_block` would build the same
    orbits as an (n+1) x count `TraceBlock`.  len() is the number of starts.
    """

    z0s: np.ndarray
    w0s: np.ndarray
    n: int

    def __len__(self) -> int:
        return len(self.w0s)


def trace_starts(map: SkewProductMap, z0s, w0s, n: int) -> TraceStarts:
    """Starts checked as `iterate_block` checks them."""
    if n < 0:
        raise HorizonNonPositive(f"step count must be >= 0, got {n}")
    z0s = np.asarray(z0s, dtype=complex)
    w0s = np.asarray(w0s, dtype=complex)
    if np.any(np.abs(z0s) >= map.r0):
        raise BaseOutsideDomain("a batch start has |z0| >= r0")
    return TraceStarts(z0s, w0s, n)


class _Columns:
    """The live columns of a stored `TraceBlock` and their carry arrays,
    compacted together (what `core._Orbits` keeps for stepped orbits)."""

    def __init__(self, count: int):
        self.idx = np.arange(count)
        self.carry: dict[str, np.ndarray] = {}

    def retire(self, done: np.ndarray) -> None:
        keep = ~done
        self.idx = self.idx[keep]
        self.carry = {k: a[keep] for k, a in self.carry.items()}


def _fiber_rows(f0: FiberMap, w0: np.ndarray, n_max: int):
    """Rows of fiber orbits, each until it passes the working cap."""
    orbits = _Orbits(f0, None, w0, bound=_ABS_CAP, factors=True,
                     carry={"logd": np.zeros(len(w0))})
    orbits.retire(~(orbits.absw <= _ABS_CAP))
    yield 0, orbits, np.log(orbits.absw), None
    for n in orbits.steps(n_max):
        logd = orbits.carry["logd"] = (orbits.carry["logd"]
                                       + np.log(np.abs(orbits.factor)))
        yield n, orbits, np.log(orbits.absw), logd


def _trace_rows(map: SkewProductMap, traces: TraceStarts | TraceBlock):
    """Rows of a trace batch, each start cut at the end of its maximal tame
    prefix: a pair at n needs steps 0..n-1 tame, and a start's last pair
    is at its first untame step or at its escape.  Starts traced for no
    step have no pairs, so their audits would fail on nothing: such a
    batch is rejected.  A batch of no starts stays legal; its audits
    report zero samples."""
    if isinstance(traces, TraceBlock):
        horizon = traces.ws.shape[0] - 1
        rows = _block_rows(traces)
    else:
        horizon = traces.n
        rows = _stepped_rows(map, traces)
    if len(traces) and horizon < 1:
        raise PreconditionViolated(f"need a trace horizon n >= 1, got {horizon}")
    return rows


def _stepped_rows(map: SkewProductMap, starts: TraceStarts):
    orbits = _Orbits(map, starts.z0s, starts.w0s, factors=True,
                     carry={"logd": np.zeros(len(starts))})

    def cut():
        tame = np.abs(orbits.z) ** map.k <= orbits.absw ** map.degree
        orbits.retire(~tame | (orbits.absw > map.escape_radius))

    cut()
    yield 0, orbits, np.log(orbits.absw), None
    for n in orbits.steps(starts.n):
        logd = orbits.carry["logd"] = (orbits.carry["logd"]
                                       + np.log(np.abs(orbits.factor)))
        yield n, orbits, np.log(orbits.absw), logd
        cut()


def _block_rows(traces: TraceBlock):
    live = _Columns(len(traces))
    live.retire(~traces.tame[0] | (traces.lengths < 2))
    yield 0, live, np.log(np.abs(traces.ws[0, live.idx])), None
    for n in range(1, traces.ws.shape[0]):
        idx = live.idx
        if not len(idx):
            return
        yield n, live, np.log(np.abs(traces.ws[n, idx])), traces.log_vder[n, idx]
        live.retire(~traces.tame[n, idx] | (traces.lengths[idx] <= n + 1))


def _scan(rows, log_l0: float):
    """The prefix scan over rows (n, live, log|w_n|, log|Df^n|), n = 0, 1, ...

    live.idx holds the starts with a pair at n (ascending), live.carry
    arrays aligned with them; a source drops a start from both once its
    pairs end.  Yields, for each n >= 1, (n, starts, log|w_n|,
    log|Df^n| - n log lam0, min_{j<n} log|w_j|, min_{0<j<n} log|w_j| (inf
    at n = 1), log|w_0|).  The sources take logs of zero, so run it under
    np.errstate(divide="ignore").
    """
    for n, live, logw, logd in rows:
        c = live.carry
        if n == 0:
            c["lw0"] = c["pm0"] = logw
            c["mids"] = np.full(len(logw), np.inf)
            continue
        yield n, live.idx, logw, logd - n * log_l0, c["pm0"], c["mids"], c["lw0"]
        c["pm0"] = np.minimum(c["pm0"], logw)
        c["mids"] = np.minimum(c["mids"], logw)


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
    if n_max < 1:
        raise PreconditionViolated(f"need n_max >= 1, got {n_max}")
    if delta <= 0:
        raise PreconditionViolated(f"delta must be positive, got {delta}")
    if f0.attracting_cycles():
        raise AttractingCyclePresent("fiber polynomial has an attracting cycle")

    w0 = np.asarray(samples, dtype=complex).ravel()
    d = f0.degree
    log_delta = math.log(delta)

    eq = _Acc("eq_1dim_der", lambda0, None)
    a21i = _Acc("prop21i", lambda0, delta)
    a21ii = _Acc("prop21ii", lambda0, delta, constant_one=True)
    a21iii = _Acc("prop21iii", lambda0, delta)
    rows = _fiber_rows(f0, w0, n_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        for n, idx, lw_n, base, pm0, mids, lw_0 in _scan(rows, math.log(lambda0)):
            eq.add(idx, n, base - (d - 1) * pm0)
            a21i.add(idx, n, base, pm0 >= log_delta)
            a21iii.add(idx, n, base, pm0 >= lw_n)
            # dip-and-return: |w| < delta, middles > delta, |f0^n(w)| <= delta
            clamp = (d - 1) * np.minimum(0.0, lw_0 - lw_n)
            a21ii.add(idx, n, base - clamp,
                      (lw_0 < log_delta) & (lw_n <= log_delta) & (mids > log_delta))
    return {a.statement: a.to_audit() for a in (eq, a21i, a21ii, a21iii)}


# ---------------------------------------------------------------------------
# trace audits (two-dimensional statements)


def audit_tame(
    map: SkewProductMap,
    traces: TraceStarts | TraceBlock,
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
    d = map.degree
    main = _Acc("thm12_main", lambda0, None)
    amin = _Acc("thm12_min", lambda0, None)
    inside = ~(np.abs(traces.z0s) >= map.r0)
    rows = _trace_rows(map, traces)
    with np.errstate(divide="ignore", invalid="ignore"):
        for n, idx, lw_n, base, pm0, _, _ in _scan(rows, math.log(lambda0)):
            sel = inside[idx]
            main.add(idx, n, base - (d - 1) * pm0, sel)
            amin.add(idx, n, base, sel & (lw_n <= pm0))
    return main.to_audit(), amin.to_audit()


def audit_return(
    map: SkewProductMap,
    traces: TraceStarts | TraceBlock,
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
    log_d0 = math.log(delta0)
    d = map.degree
    acc = _Acc("lem34", lambda0, delta0, constant_one=True)
    near = ~(np.abs(traces.z0s) >= eta0)
    rows = _trace_rows(map, traces)
    with np.errstate(divide="ignore", invalid="ignore"):
        for n, idx, lw_n, base, _, mids, lw_0 in _scan(rows, math.log(lambda0)):
            clamp = (d - 1) * np.minimum(0.0, lw_0 - lw_n)
            acc.add(idx, n, base - clamp,
                    near[idx] & ~(lw_0 > log_d0) & (lw_n <= log_d0) & (mids >= lw_n))
    return acc.to_audit()


def audit_side_lemmas(
    map: SkewProductMap,
    traces: TraceStarts | TraceBlock,
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
    log_delta = math.log(delta)
    log_half, log_twice = log_delta - math.log(2.0), log_delta + math.log(2.0)
    d = map.degree
    a31 = _Acc("lem31", lambda0, delta)
    a32 = _Acc("lem32", lambda0, delta)
    a33 = _Acc("lem33", lambda0, delta, constant_one=True)
    near = np.abs(traces.z0s) < eta
    on_line = traces.z0s == 0
    rows = _trace_rows(map, traces)
    with np.errstate(divide="ignore", invalid="ignore"):
        for n, idx, lw_n, base, pm0, mids, lw_0 in _scan(rows, math.log(lambda0)):
            floor = near[idx] & (pm0 >= log_delta)
            a31.add(idx, n, base, floor)
            a32.add(idx, n, base, floor & (lw_n <= log_delta))
            line = on_line[idx] & (lw_0 < log_twice)
            clamp = (d - 1) * np.minimum(0.0, lw_0 - lw_n)
            a33.add(idx, n, base - clamp,
                    line & (lw_n < log_twice) & (mids > log_half))
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
    Unicritical maps only: the starts bind against c(0), which is the
    critical value of f_0 only in unicritical mode.  Like the other orbit
    audits it rejects a fiber map with an attracting cycle, where bound
    pairs fall into the cycle and the derivative never recovers.
    """
    if map.mode != "unicritical":
        raise PreconditionViolated(
            "the departure audit binds against c(0), the critical value of a "
            "unicritical map; general-mode maps are not supported")
    _check_lambda0(lambda0, map.lam)
    if find_attracting_cycles(map):
        raise AttractingCyclePresent("fiber polynomial has an attracting cycle")
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
    with |xi_n| <= eps; fitted constant is n_min / log(1/eps).  n_min is
    None when no admitted start returns within the horizon."""
    if not 0.0 < epsilon <= 0.1:
        raise PreconditionViolated(f"epsilon must lie in (0, 0.1], got {epsilon}")
    if horizon < 1:
        raise PreconditionViolated(f"need horizon >= 1, got {horizon}")
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
    if per_axis < 1:
        raise PreconditionViolated(f"need per_axis >= 1, got {per_axis}")
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
) -> TraceStarts:
    """Deterministic random starts for depth n, handed over unstepped: the
    audits step them in their own scan."""
    if z_radius is None:
        z_radius = 0.9 * map.r0
    if w_radius is None:
        w_radius = 0.9 * map.escape_radius

    def draw(gen: np.random.Generator, m: int) -> np.ndarray:
        return np.column_stack([
            mc.uniform_disk(gen, m, z_radius),
            mc.uniform_disk(gen, m, w_radius),
        ])

    cols = mc.draw_blocks(seed, "trace_starts", count, draw)
    return trace_starts(map, cols[:, 0], cols[:, 1], n)
