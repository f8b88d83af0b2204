"""Empirical audits of the vertical-derivative lower bounds.

Each audit scans sampled orbits for the (start, n) pairs satisfying a
statement's hypotheses, strips the statement's right-hand side from the
observed derivative, and reports the minimum leftover ratio as the fitted
constant.  Each statement is declared once, in STATEMENTS: its constant
rule and inequality and, for the orbit statements, the ratio it strips
from a scan row and its admission rule.  Those asserting constant 1 also
count how often the ratio dips below 1 (allowing 1e-9 relative rounding
slack).

Every orbit statement runs in one fold (`_fold`), a row-streamed prefix
scan of the starts that `_rows` steps.  It keeps only carry arrays over
the live orbits: log |Df^n|, the running minima of log |w_j| over j < n
and over 0 < j < n, and log |w_0|; no (n+1) x count history is stored.
Starts run in slices of mc.BATCH_SIZE, each scanned to its end before
the next, so the carries stay one slice long.  Each accumulator keeps
the least (ratio, start, n) in lexicographic order, over global start
positions, so ties go to the earliest start, then the earliest n,
whatever order the slices and rows come in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import mc
from .core import SkewProductMap, _Orbits, find_attracting_cycles
from .errors import (
    AttractingCyclePresent,
    BaseOutsideDomain,
    EmptyGrid,
    EmptySample,
    HorizonNonPositive,
    PreconditionViolated,
)
from .fiber import FiberMap

REL_SLACK = 1e-9
_LOG_FLOOR = math.log1p(-REL_SLACK)
_ABS_CAP = 1e50  # orbits past this stop contributing (ratios uncompetitive)


class Row(NamedTuple):
    """What a statement reads at step n >= 1 of the live starts: lw_n =
    log|w_n|, base = log|Df^n| - n log lam0, pm0 = min_{j<n} log|w_j|,
    mids = min_{0<j<n} log|w_j| (inf at n = 1), lw_0 = log|w_0|, and the
    audit's hypotheses: log_delta (of delta0 for lem34), near (|z0| within
    its cut: r0 for tame, eta0 or eta for return and side) and on_line
    (z0 = 0)."""

    lw_n: np.ndarray
    base: np.ndarray
    pm0: np.ndarray
    mids: np.ndarray
    lw_0: np.ndarray
    log_delta: float
    near: np.ndarray | None
    on_line: np.ndarray | None


# the log ratio each right-hand side leaves of a row, with d the degree:
# C lam0^n, C lam0^n min_{j<n} |w_j|^(d-1) and lam0^n min(1, |w_0/w_n|^(d-1))
_RATIOS = {
    "exp": lambda r, d: r.base,
    "exp_min": lambda r, d: r.base - (d - 1) * r.pm0,
    "exp_clamp": lambda r, d: r.base - (d - 1) * np.minimum(0.0, r.lw_0 - r.lw_n),
}


class Statement(NamedTuple):
    """An audited statement as the repo reads the paper: its constant rule,
    "fitted" or "1" (violations counted), and inequality, hypotheses =>
    bound, where (z_j, w_j) is the j-th iterate, Df^n the vertical
    derivative (Df0^n on the line) and tame is |z_j|^k <= |w_j|^d, j < n.

    An orbit statement also names its ratio, a key of _RATIOS, and its
    admission rule, admit(row) -> the row's admitted pairs, or None for
    every pair; a statement without one records no delta.  lem25 and lem26
    run scans of their own and have neither."""

    constant: str
    inequality: str
    ratio: str | None = None
    admit: Callable[[Row], np.ndarray] | None = None


STATEMENTS = {
    "eq_1dim_der": Statement("fitted", "|Df0^n| >= C lam0^n min_{j<n} |w_j|^(d-1)", "exp_min"),
    "prop21i": Statement("fitted", "|w_j| >= delta for j < n => |Df0^n| >= C lam0^n",
                         "exp", lambda r: r.pm0 >= r.log_delta),
    "prop21ii": Statement("1", "|w_0| < delta, |w_j| > delta for 0 < j < n, |w_n| <= delta"
                               " => |Df0^n| >= lam0^n min(1, |w_0/w_n|^(d-1))",
                          "exp_clamp", lambda r: (r.lw_0 < r.log_delta)
                          & (r.lw_n <= r.log_delta) & (r.mids > r.log_delta)),
    "prop21iii": Statement("fitted", "|w_j| >= |w_n| for j < n => |Df0^n| >= C lam0^n",
                           "exp", lambda r: r.pm0 >= r.lw_n),
    "thm12_main": Statement("fitted", "tame => |Df^n| >= C lam0^n min_{j<n} |w_j|^(d-1)",
                            "exp_min", lambda r: r.near),
    "thm12_min": Statement("fitted", "tame, |w_j| >= |w_n| for j < n => |Df^n| >= C lam0^n",
                           "exp", lambda r: r.near & (r.lw_n <= r.pm0)),
    "lem31": Statement("fitted", "tame, |z_0| < eta, |w_j| >= delta for j < n"
                                 " => |Df^n| >= C lam0^n",
                       "exp", lambda r: r.near & (r.pm0 >= r.log_delta)),
    "lem32": Statement("fitted", "tame, |z_0| < eta, |w_j| >= delta for j < n, |w_n| <= delta"
                                 " => |Df^n| >= C lam0^n",
                       "exp", lambda r: r.near & (r.pm0 >= r.log_delta) & (r.lw_n <= r.log_delta)),
    "lem33": Statement("1", "z_0 = 0, |w_0| < 2 delta, |w_j| > delta/2 for 0 < j < n,"
                            " |w_n| < 2 delta => |Df^n| >= lam0^n min(1, |w_0/w_n|^(d-1))",
                       "exp_clamp", lambda r: r.on_line & (r.lw_0 < r.log_delta + math.log(2.0))
                       & (r.lw_n < r.log_delta + math.log(2.0))
                       & (r.mids > r.log_delta - math.log(2.0))),
    "lem34": Statement("1", "tame, |z_0| < eta0, |w_0| <= delta0, |w_j| >= |w_n| for 0 < j < n,"
                            " |w_n| <= delta0 => |Df^n| >= lam0^n min(1, |w_0/w_n|^(d-1))",
                       "exp_clamp", lambda r: r.near & ~(r.lw_0 > r.log_delta)
                       & (r.lw_n <= r.log_delta) & (r.mids >= r.lw_n)),
    "lem25": Statement("1", "delta = max(|w_0 - c(0)|, |z_0|^k)^(1/d) in (0, 0.05)"
                            " => |Df^n| >= lam0^n delta^-(d-1) for some n up to binding"),
    "lem26": Statement("fitted", "|z_0|^k <= eps, |w_0| <= eps"
                                 " => the first n >= 1 with |w_n| <= eps is >= C log(1/eps)"),
}


@dataclass
class BoundAudit:
    """Outcome of one statement's scan over a sample batch."""

    statement: str
    lambda0: float | None
    delta: float | None
    samples: int
    fitted_constant: float | None
    min_ratio_location: dict | None
    violations: int
    passed: bool

    @property
    def admitted(self) -> int:  # the name perfbench's lem26 counter reads
        return self.samples

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
    """Running minimum over recorded (start, n) ratios, in log scale, under
    the constant rule of the statement's STATEMENTS entry."""

    def __init__(self, statement: str, lambda0: float, delta: float | None):
        self.statement = statement
        self.lambda0 = lambda0
        self.delta = delta
        self.rule = STATEMENTS[statement].constant
        self.count = 0
        self.violations = 0
        self.min_log = math.inf
        self.loc: dict | None = None

    def add(self, starts: np.ndarray, n: int, ratio_logs: np.ndarray,
            sel: np.ndarray | None = None) -> None:
        """Ratios at step n of the given starts (start positions, ascending);
        sel marks the admitted pairs (all when None)."""
        # exact critical hits make both sides vanish; drop those pairs
        ok = ratio_logs > -np.inf
        if sel is not None:
            ok &= sel
        count = int(np.count_nonzero(ok))
        if count == 0:
            return
        masked = np.where(ok, ratio_logs, np.inf)
        self.fold(count, int(np.count_nonzero(masked < _LOG_FLOOR)), masked, starts, n)

    def fold(self, count: int, violations: int, logs: np.ndarray, starts: np.ndarray,
             ns) -> None:
        """Add count admitted pairs, and their violations under the rule "1".
        logs are ratios at (starts, ns), starts ascending, ns an array or one
        n for all; the minimum is the least (ratio, start, n)."""
        self.count += count
        if self.rule == "1":
            self.violations += violations
        if not len(logs):
            return
        c = int(np.argmin(logs))  # the first minimum: the earliest start
        value, start, n = float(logs[c]), int(starts[c]), int(ns[c] if np.ndim(ns) else ns)
        if value < self.min_log or (
                value == self.min_log and self.loc is not None
                and (start, n) < (self.loc["start"], self.loc["n"])):
            self.min_log = value
            self.loc = {"start": start, "n": n}

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
# the row-streamed prefix scan and fold shared by every orbit statement


@dataclass(frozen=True)
class TraceStarts:
    """A batch of starts (z0, w0) and the horizon n the audits step them to.

    The tame, return and side audits step these themselves, one row at a
    time and mc.BATCH_SIZE starts at a time, so no orbit history is
    stored.  len() is the number of starts.  With z0s None they are the
    fiber starts w0 of `audit_onedim`.
    """

    z0s: np.ndarray | None
    w0s: np.ndarray
    n: int

    def __len__(self) -> int:
        return len(self.w0s)

    def batches(self):
        """(first, z0s, w0s) slices of mc.BATCH_SIZE starts."""
        for lo in range(0, len(self), mc.BATCH_SIZE):
            hi = lo + mc.BATCH_SIZE
            yield lo, None if self.z0s is None else self.z0s[lo:hi], self.w0s[lo:hi]


def trace_starts(map: SkewProductMap, z0s, w0s, n: int) -> TraceStarts:
    """Starts checked as `core.iterate` checks one start: n >= 0 and every
    |z0| < r0 (a NaN z0 is outside)."""
    if n < 0:
        raise HorizonNonPositive(f"step count must be >= 0, got {n}")
    z0s = np.asarray(z0s, dtype=complex)
    w0s = np.asarray(w0s, dtype=complex)
    if np.any(~(np.abs(z0s) < map.r0)):
        raise BaseOutsideDomain("a batch start has |z0| >= r0")
    return TraceStarts(z0s, w0s, n)


def _rows(map, starts, n_max: int):
    """The scan's rows (n, live, log|w_n|, log|Df^n|), n = 0 .. n_max: the
    starts stepped one (first, z0s, w0s) batch of starts.batches() at a
    time, as fiber orbits of the FiberMap map where z0s is None.  live is
    the batch's `core._Orbits`; a start leaves it once `_spent`.  Starts
    stepped for no step have no pairs, so their audits would fail on
    nothing: they are rejected.  No starts stay legal (zero samples)."""
    if len(starts) and n_max < 1:
        raise PreconditionViolated(f"need a trace horizon n >= 1, got {n_max}")
    for first, z0s, w0s in starts.batches():
        orbits = _Orbits(map, z0s, w0s, bound=_ABS_CAP if z0s is None else None,
                         factors=True, carry={"logd": np.zeros(len(w0s))}, first=first)
        orbits.retire(_spent(orbits))
        yield 0, orbits, np.log(orbits.absw), None
        for n in orbits.steps(n_max):
            logd = orbits.carry["logd"] = (orbits.carry["logd"]
                                           + np.log(np.abs(orbits.factor)))
            yield n, orbits, np.log(orbits.absw), logd
            orbits.retire(_spent(orbits))


def _spent(orbits: _Orbits) -> np.ndarray:
    """The live orbits with no further pairs.  A fiber orbit has none past
    the working cap, where `steps` drops it before its row.  A trace's pair
    at n needs steps 0..n-1 tame, so its last pair is at its first untame
    step or at its escape."""
    if orbits.z is None:
        return ~(orbits.absw <= _ABS_CAP)
    m = orbits.map
    tame = np.abs(orbits.z) ** m.k <= orbits.absw ** m.degree
    return ~tame | (orbits.absw > m.escape_radius)


def _fold(tags, rows, lambda0: float, d: int, delta: float | None = None,
          near: np.ndarray | None = None, on_line: np.ndarray | None = None):
    """The audits {tag: BoundAudit} of the tagged statements, for a map of
    degree d, over the prefix scan of rows (n, live, log|w_n|, log|Df^n|):
    at each n >= 1 each statement adds its ratio of the Row at the pairs
    its admission rule admits.  live.idx holds the starts with a pair at n
    (ascending), live.carry the scan's carries aligned with them; each
    slice of starts runs from n = 0 with a live and carries of its own."""
    log_delta, log_l0 = math.nan if delta is None else math.log(delta), math.log(lambda0)
    # a statement that admits every pair records no delta
    stated = [(STATEMENTS[tag], _Acc(tag, lambda0, None if STATEMENTS[tag].admit is None
                                     else delta)) for tag in tags]
    # the source takes logs of zero
    with np.errstate(divide="ignore", invalid="ignore"):
        for n, live, logw, logd in rows:
            c, idx = live.carry, live.idx
            if n == 0:
                c["lw0"] = c["pm0"] = logw
                c["mids"] = np.full(len(logw), np.inf)
                continue
            row = Row(logw, logd - n * log_l0, c["pm0"], c["mids"], c["lw0"], log_delta,
                      None if near is None else near[idx],
                      None if on_line is None else on_line[idx])
            for st, acc in stated:
                acc.add(idx, n, _RATIOS[st.ratio](row, d),
                        None if st.admit is None else st.admit(row))
            c["pm0"] = np.minimum(c["pm0"], logw)
            c["mids"] = np.minimum(c["mids"], logw)
    return {acc.statement: acc.to_audit() for _, acc in stated}


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

    if not isinstance(samples, FiberStarts):  # those are drawn a batch at a time
        samples = TraceStarts(None, np.asarray(samples, dtype=complex).ravel(), n_max)
    return _fold(("eq_1dim_der", "prop21i", "prop21ii", "prop21iii"),
                 _rows(f0, samples, n_max), lambda0, f0.degree, delta)


# ---------------------------------------------------------------------------
# trace audits (two-dimensional statements)


def _eta(map: SkewProductMap, eta: float | None) -> float:
    """The |z0| cut of the small-return statements: r0/10 unless given."""
    return map.r0 / 10.0 if eta is None else eta


def audit_tame(
    map: SkewProductMap,
    traces: TraceStarts,
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
    main, amin = _fold(("thm12_main", "thm12_min"), _rows(map, traces, traces.n), lambda0,
                       map.degree, near=~(np.abs(traces.z0s) >= map.r0)).values()
    return main, amin


def audit_return(
    map: SkewProductMap,
    traces: TraceStarts,
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
    near = ~(np.abs(traces.z0s) >= _eta(map, eta0))
    return _fold(("lem34",), _rows(map, traces, traces.n), lambda0, map.degree,
                 delta0, near)["lem34"]


def audit_side_lemmas(
    map: SkewProductMap,
    traces: TraceStarts,
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
    return _fold(("lem31", "lem32", "lem33"), _rows(map, traces, traces.n), lambda0,
                 map.degree, delta, np.abs(traces.z0s) < _eta(map, eta), traces.z0s == 0)


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
    pairs fall into the cycle and the derivative never recovers.  starts
    is a sequence of (z1, w1) or a (count, 2) array; they bind BLOCK_PAIRS
    at a time.
    """
    # binding, the largest module, is loaded only by the departure audit,
    # so the other audits' processes never compile it
    from .binding import BLOCK_PAIRS, mu_constants

    if map.mode != "unicritical":
        raise PreconditionViolated(
            "the departure audit binds against c(0), the critical value of a "
            "unicritical map; general-mode maps are not supported")
    _check_lambda0(lambda0, map.lam)
    if find_attracting_cycles(map):
        raise AttractingCyclePresent("fiber polynomial has an attracting cycle")
    if mu is None:
        mu = mu_constants(map.degree)[0]
    acc = _Acc("lem25", lambda0, 0.05)
    pts = np.asarray(starts, dtype=complex).reshape(-1, 2)
    for lo in range(0, len(pts), BLOCK_PAIRS):
        _departure_block(map, pts[lo:lo + BLOCK_PAIRS], lo, lambda0, mu,
                         horizon, acc)
    return acc.to_audit()


def _departure_block(map: SkewProductMap, pts: np.ndarray, lo: int,
                     lambda0: float, mu: float, horizon: int, acc: _Acc) -> None:
    """Fold one block of departure starts, batch positions lo onward, into
    acc: each admitted start folds its first ratio that reaches 1 up to its
    binding time, or counts as a violation when none does."""
    from .binding import _bind, _ranges

    c0 = map.c0_origin
    d = map.degree
    z1, w1 = pts[:, 0], pts[:, 1]
    # delta per start with CPython's float ** and max, as stated above
    gaps = np.hypot(w1.real - c0.real, w1.imag - c0.imag).tolist()
    radii = np.hypot(z1.real, z1.imag).tolist()
    deltas = np.array([max(g, r ** map.k) ** (1.0 / d) for g, r in zip(gaps, radii)])
    admitted = np.flatnonzero(~((deltas == 0.0) | (deltas >= 0.05)))
    if not len(admitted):
        return

    # every start binds against the one critical-value orbit
    h = _bind(map, z1[admitted], w1[admitted], np.zeros(1, dtype=complex),
              np.array([c0]), mu, horizon, fields=("log_vder_x",))
    last = h.last
    pos = _ranges(h.start[:-1] + 1, last)
    pair = np.repeat(np.arange(len(admitted)), last)
    ns = pos - h.start[pair]
    log_delta = np.array([math.log(x) for x in deltas[admitted].tolist()])
    ratio_logs = (h.data["log_vder_x"][pos] - ns * math.log(lambda0)
                  + (d - 1) * log_delta[pair])
    # the first step up to the binding time that reaches the bound
    hits = np.flatnonzero(ratio_logs >= _LOG_FLOOR)
    found, first = np.unique(pair[hits], return_index=True)
    acc.fold(len(admitted), len(admitted) - len(found), ratio_logs[hits[first]],
             lo + admitted[found], ns[hits[first]])


def przytycki_return(
    map: SkewProductMap,
    epsilon: float,
    grid,
    horizon: int = 1000,
) -> BoundAudit:
    """Scan starts with |z0|^k <= eps, |w0| <= eps for the earliest n >= 1
    with |xi_n| <= eps: the lem26 audit, with delta = eps and no lambda0.
    Its least n, n_min, is the location's n and the fitted constant is
    n_min / log(1/eps); it passes when an admitted start returns within the
    horizon, and both are None otherwise.  grid is a sequence of (z0, w0)
    pairs or a (count, 2) array."""
    if not 0.0 < epsilon <= 0.1:
        raise PreconditionViolated(f"epsilon must lie in (0, 0.1], got {epsilon}")
    if horizon < 1:
        raise PreconditionViolated(f"need horizon >= 1, got {horizon}")
    if find_attracting_cycles(map):
        raise AttractingCyclePresent("fiber polynomial has an attracting cycle")
    pts = np.asarray(grid, dtype=complex).reshape(-1, 2)
    sel = pts[(np.abs(pts[:, 0]) ** map.k <= epsilon) & (np.abs(pts[:, 1]) <= epsilon)]
    del pts
    admitted = len(sel)
    if not admitted:
        raise EmptyGrid("no grid start satisfies the smallness hypotheses")

    first = np.full(admitted, -1, dtype=int)
    # the orbits copy w, and their z is a new array after one step, so the
    # selection is freed then
    orbits = _Orbits(map, sel[:, 0], sel[:, 1],
                     bound=max(map.escape_radius * 10.0, 100.0), lam_left=True)
    del sel
    for n in orbits.steps(horizon):
        hit = orbits.absw <= epsilon
        first[orbits.idx[hit]] = n
        orbits.retire(hit)

    hits = first[first > 0]
    loc = None
    if len(hits):
        n_min = int(hits.min())
        loc = {"start": int(np.nonzero(first == n_min)[0][0]), "n": n_min}
    return BoundAudit(
        statement="lem26", lambda0=None, delta=epsilon, samples=admitted,
        fitted_constant=None if loc is None else loc["n"] / math.log(1.0 / epsilon),
        min_ratio_location=loc, violations=0, passed=loc is not None,
    )


def critical_ball_grid(map: SkewProductMap, epsilon: float, per_axis: int = 100):
    """Real lattice inside {|z|^k <= eps} x {|w| <= eps}, centers included,
    as a (per_axis^2, 2) array of (z, w) rows, z-major.

    Returns stay concentrated near the real locus (off-axis orbits escape
    before re-entering the critical ball), so a real grid probes the
    minimal return time far more efficiently than a complex cloud.
    """
    if per_axis < 1:
        raise PreconditionViolated(f"need per_axis >= 1, got {per_axis}")
    rz = epsilon ** (1.0 / map.k)
    zs = np.linspace(-rz, rz, per_axis)
    ws = np.linspace(-epsilon, epsilon, per_axis)
    return np.column_stack([np.repeat(zs, per_axis), np.tile(ws, per_axis)])


# ---------------------------------------------------------------------------
# assembly helpers


def _start_draw(real: bool, w_radius: float, z_radius: float | None = None):
    """The block draw of uniform starts, draw(gen, m) -> (m, k), one row
    each: (z0, w0), or w0 alone without z_radius.

    Complex draws fill the disks |z0| < z_radius, |w0| < w_radius; real
    draws fill the intervals of the same half-widths, whose widths 2r must
    be finite doubles.  z_radius 0 puts every start on the invariant line;
    a w_radius of 0 would put every start on the critical point.
    """
    if z_radius is not None and not z_radius >= 0:
        raise PreconditionViolated(f"z_radius must be >= 0, got {z_radius}")
    if not w_radius > 0:
        raise PreconditionViolated(f"w_radius must be positive, got {w_radius}")
    radii = [w_radius] if z_radius is None else [z_radius, w_radius]
    if real and not all(math.isfinite(2.0 * r) for r in radii):
        raise PreconditionViolated(
            f"a real draw's interval [-r, r] needs a finite width 2r, got r in {radii}")

    def draw(gen: mc.Stream, m: int) -> np.ndarray:
        if real:
            return np.column_stack([gen.uniform(-r, r, m) for r in radii])
        return np.column_stack([mc.uniform_disk(gen, m, r) for r in radii])

    return draw


class FiberStarts:
    """The fiber starts of `sample_fiber_starts`, kept as their draw.

    len() is the count.  `batches` draws them mc.BATCH_SIZE at a time as
    (first, None, w0) with complex w0; a batch of whole blocks equals its slice
    of the full draw, so `audit_onedim` steps the same starts without ever
    holding all of them.
    """

    def __init__(self, seed: int, count: int, draw):
        self.seed, self.count, self.draw = seed, count, draw

    def __len__(self) -> int:
        return self.count

    def batches(self):
        for first, cols in mc.draw_batches(self.seed, "bounds_onedim", self.count, self.draw):
            yield first, None, cols[:, 0].astype(complex, copy=False)


def sample_fiber_starts(
    map: SkewProductMap,
    count: int,
    seed: int,
    w_radius: float | None = None,
    real: bool = False,
) -> FiberStarts:
    """Deterministic random fiber starts for `audit_onedim`, uniform over
    |w0| < w_radius (default 0.9 R) or, with real=True, the real interval.
    Nothing is drawn until they are used; the checks run here."""
    if w_radius is None:
        w_radius = 0.9 * map.escape_radius
    draw = _start_draw(real, w_radius)
    if not mc.block_counts(count):
        raise EmptySample(f"sample count must be positive, got {count}")
    return FiberStarts(seed, count, draw)


def sample_traces(
    map: SkewProductMap,
    count: int,
    n: int,
    seed: int,
    z_radius: float | None = None,
    w_radius: float | None = None,
    real: bool = False,
    delta0: float | None = None,
    eta0: float | None = None,
) -> TraceStarts:
    """Deterministic random starts for depth n, handed over unstepped: the
    audits step them in their own scan.

    Starts are uniform over |z0| < z_radius, |w0| < w_radius, or with
    real=True over the real intervals: the hypothesis sets of returns and
    on-line floors carry no area and are only hit along the real locus.
    The radii default to 0.9 r0 and 0.9 R.  Given delta0, they default to
    the admissible region of `audit_return` instead: |z0| < eta0 (default
    r0/10) capped at 0.9 r0, and |w0| < delta0.
    """
    if z_radius is None:
        z_radius = 0.9 * map.r0
        if delta0 is not None:
            z_radius = min(_eta(map, eta0), z_radius)
    if w_radius is None:
        w_radius = 0.9 * map.escape_radius if delta0 is None else delta0
    tag = "bounds_real_traces" if real else "trace_starts"
    cols = mc.draw_blocks(seed, tag, count, _start_draw(real, w_radius, z_radius))
    cols = cols.astype(complex, copy=False)
    return trace_starts(map, cols[:, 0], cols[:, 1], n)
