"""Derivative lower-bound audits, departure scan, and return-time floor.

Oracle strategy: the one-dimensional audits are cross-checked against a
raw-Python rescan of the same statements (list arithmetic, no shared numpy
path); return times against a scalar first-hit loop; the critical-value
departure audit against a hand-rolled one-dimensional scan on invariant-line
starts.  Closed-form cases pin exact fitted constants at the Chebyshev
fixed point w = 2, where |Df0^n| = 4^n and every orbit magnitude is 2.
"""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import TraceBlock, assert_bitwise, iterate_block

from skewdyn import bounds as BD
from skewdyn import mc
from skewdyn.binding import mu_constants
from skewdyn.core import OrbitTrace, _Orbits, build_map, iterate
from skewdyn.errors import (
    AttractingCyclePresent,
    EmptyGrid,
    EmptySample,
    PreconditionViolated,
)
from skewdyn.gallery import basilica_map, chebyshev_map

CAP = 1e50  # mirror of the audit's working cap


@pytest.fixture(scope="module")
def cheb():
    return chebyshev_map()


# ---------------------------------------------------------------------------
# independent oracles


def oracle_onedim(coeffs, d, starts, n_max, lambda0, delta):
    """Raw rescan of the four one-dimensional statements.

    Returns {tag: [(start_idx, n, log_ratio)]} over every admitted pair,
    mirroring the audit's alive-prefix and degenerate-pair semantics.
    """

    def f(w):
        acc = w + coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * w + c
        return acc

    def df(w):
        acc = complex(d)
        for i in range(d - 1, 0, -1):
            acc = acc * w + i * coeffs[i]
        return acc

    res = {k: [] for k in ("eq_1dim_der", "prop21i", "prop21ii", "prop21iii")}
    ll0, ld = math.log(lambda0), math.log(delta)
    for idx, w0 in enumerate(starts):
        w = complex(w0)
        logw = [math.log(abs(w)) if w != 0 else -math.inf]
        logd = [0.0]
        alive = [True]
        for _ in range(n_max):
            if not alive[-1]:
                alive.append(False)
                logw.append(math.nan)
                logd.append(math.nan)
                continue
            dv = df(w)
            logd.append(logd[-1] + (math.log(abs(dv)) if dv != 0 else -math.inf))
            w = f(w)
            logw.append(math.log(abs(w)) if w != 0 else -math.inf)
            alive.append(abs(w) <= CAP)
        for n in range(1, n_max + 1):
            if not alive[n]:
                break
            base = logd[n] - n * ll0
            pm0 = min(logw[:n])
            pm1 = min(logw[1:n]) if n > 1 else math.inf
            pairs = [("eq_1dim_der", base - (d - 1) * pm0)]
            if pm0 >= ld:
                pairs.append(("prop21i", base))
            if pm0 >= logw[n]:
                pairs.append(("prop21iii", base))
            if logw[0] < ld and logw[n] <= ld and pm1 > ld:
                clamp = (d - 1) * min(0.0, logw[0] - logw[n])
                pairs.append(("prop21ii", base - clamp))
            for k, r in pairs:
                if not math.isnan(r) and r != -math.inf:
                    res[k].append((idx, n, r))
    return res


def oracle_first_return(lam, d, c_coeffs, k, eps, grid, horizon):
    """Scalar first-hit scan for the minimal return time over a grid."""

    def c(z):
        return sum(a * z**j for j, a in enumerate(c_coeffs))

    best = None
    for z, w in grid:
        z, w = complex(z), complex(w)
        if abs(z) ** k > eps or abs(w) > eps:
            continue
        for n in range(1, horizon + 1):
            w = w**d + c(z)
            z = lam * z
            if abs(w) <= eps:
                if best is None or n < best:
                    best = n
                break
            if abs(w) > 1e6:
                break
    return best


def make_trace(map, z0, ws, logd):
    """Hand-built all-tame trace for the return-bound audit."""
    n = len(ws) - 1
    return OrbitTrace(
        z0=complex(z0),
        w0=complex(ws[0]),
        zs=np.array([z0 * map.lam**i for i in range(n + 1)], dtype=complex),
        ws=np.array(ws, dtype=complex),
        log_vder=np.array(logd, dtype=float),
        vder_phase=np.zeros(n + 1),
        tame_flags=np.ones(n + 1, dtype=bool),
        escape_step=None,
    )


def stack(traces):
    """OrbitTraces stacked into one TraceBlock, NaN (tame False) past each
    trace's end, as iterate_block lays out its columns."""
    m = len(traces)
    rows = max((len(t) for t in traces), default=1)
    ws = np.full((rows, m), np.nan, dtype=complex)
    logs = np.full((rows, m), np.nan)
    tame = np.zeros((rows, m), dtype=bool)
    for j, t in enumerate(traces):
        ws[:len(t), j] = t.ws
        logs[:len(t), j] = t.log_vder
        tame[:len(t), j] = t.tame_flags
    return TraceBlock(
        z0s=np.array([t.z0 for t in traces], dtype=complex), ws=ws,
        log_vder=logs, tame=tame,
        lengths=np.array([len(t) for t in traces], dtype=int),
        escaped=np.array([t.escape_step is not None for t in traces], dtype=bool))


def block_rows(block):
    """A TraceBlock's stored columns as the scan's rows, each column cut at
    the end of its maximal tame prefix: the row source the trace audits
    read before they stepped every batch themselves."""
    live = _Columns(len(block))
    live.retire(~block.tame[0] | (block.lengths < 2))
    yield 0, live, np.log(np.abs(block.ws[0, live.idx])), None
    for n in range(1, block.ws.shape[0]):
        idx = live.idx
        if not len(idx):
            return
        yield n, live, np.log(np.abs(block.ws[n, idx])), block.log_vder[n, idx]
        live.retire(~block.tame[n, idx] | (block.lengths[idx] <= n + 1))


class _Columns:
    """The live columns of a stored block and their carry arrays,
    compacted together (what `core._Orbits` keeps for stepped orbits)."""

    def __init__(self, count):
        self.idx = np.arange(count)
        self.carry = {}

    def retire(self, done):
        keep = ~done
        self.idx = self.idx[keep]
        self.carry = {k: a[keep] for k, a in self.carry.items()}


@pytest.fixture
def stored(monkeypatch):
    """Hand-built traces reach the trace audits: passed a TraceBlock, they
    read its stored columns instead of stepping starts."""
    rows = BD._rows
    monkeypatch.setattr(BD, "_rows", lambda map, starts, n: block_rows(starts)
                        if isinstance(starts, TraceBlock) else rows(map, starts, n))


def columns(block, map):
    """The block's columns as OrbitTraces (phase left at 0)."""
    for j in range(len(block)):
        ln = int(block.lengths[j])
        yield OrbitTrace(
            z0=complex(block.z0s[j]),
            w0=complex(block.ws[0, j]),
            zs=block.z0s[j] * map.lam ** np.arange(ln),
            ws=block.ws[:ln, j].copy(),
            log_vder=block.log_vder[:ln, j].copy(),
            vder_phase=np.zeros(ln),
            tame_flags=block.tame[:ln, j].copy(),
            escape_step=(ln - 1) if block.escaped[j] else None,
        )


def traces_of(map, starts, n):
    """The (z0, w0) starts, checked, for the audits to step to depth n."""
    pts = np.asarray(starts, dtype=complex).reshape(-1, 2)
    return BD.trace_starts(map, pts[:, 0], pts[:, 1], n)


# ---------------------------------------------------------------------------
# reference copy of the block scan the row-streamed scan replaced: its
# accumulator step, prefix scan, tame scan and one-dimensional block loop


class RefAcc(BD._Acc):
    """The accumulator with the block scan's step: a block of rows ns by
    columns start_idx + c, minimum taken start-major."""

    def add(self, start_idx, ns, ratio_logs, sel):
        # exact critical hits make both sides vanish; drop those pairs
        ok = sel & (np.isfinite(ratio_logs) | np.isposinf(ratio_logs))
        count = int(np.count_nonzero(ok))
        if count == 0:
            return
        self.count += count
        masked = np.where(ok, ratio_logs, np.inf)
        c, r = divmod(int(np.argmin(masked.T)), masked.shape[0])  # start-major
        if masked[r, c] < self.min_log:
            self.min_log = float(masked[r, c])
            self.loc = {"start": start_idx + c, "n": int(ns[r])}
        if self.rule == "1":
            self.violations += int(np.count_nonzero(masked < BD._LOG_FLOOR))


def ref_prefix_scan(logw, n_hi):
    rows = int(n_hi.max(initial=0)) + 1
    logw = logw[:rows]
    ns = np.arange(1, rows)
    alive = ns[:, None] <= n_hi
    pm0 = np.minimum.accumulate(logw[:-1], axis=0)
    mids = np.full_like(pm0, np.inf)
    mids[1:] = np.minimum.accumulate(logw[1:-1], axis=0)
    return ns, alive, pm0, mids


def ref_tame_scan(traces, log_l0):
    if len(traces) and traces.ws.shape[0] < 2:
        raise PreconditionViolated(
            f"need a trace horizon n >= 1, got {traces.ws.shape[0] - 1}")
    with np.errstate(divide="ignore"):
        logw = np.log(np.abs(traces.ws))
    prefix = np.logical_and.accumulate(traces.tame, axis=0).sum(axis=0)
    n_hi = np.minimum(prefix, traces.lengths - 1)
    ns, alive, pm0, mids = ref_prefix_scan(logw, n_hi)
    rows = slice(1, len(ns) + 1)
    base = traces.log_vder[rows] - ns[:, None] * log_l0
    return ns, alive, pm0, mids, logw[rows], base, logw[0]


def ref_block_onedim(f0, samples, n_max, lambda0, delta):
    w0 = np.asarray(samples, dtype=complex).ravel()
    d = f0.degree
    log_l0 = math.log(lambda0)
    log_delta = math.log(delta)
    accs = {
        "eq_1dim_der": RefAcc("eq_1dim_der", lambda0, None),
        "prop21i": RefAcc("prop21i", lambda0, delta),
        "prop21ii": RefAcc("prop21ii", lambda0, delta),
        "prop21iii": RefAcc("prop21iii", lambda0, delta),
    }
    for first in range(0, len(w0), mc.BLOCK_SIZE):
        block = w0[first:first + mc.BLOCK_SIZE]
        logw = np.full((n_max + 1, len(block)), np.nan)
        logd = np.full((n_max + 1, len(block)), np.nan)
        lengths = np.ones(len(block), dtype=int)
        orbits = _Orbits(f0, None, block, bound=CAP, factors=True)
        orbits.retire(~(orbits.absw <= CAP))
        with np.errstate(divide="ignore"):
            logw[0] = np.log(np.abs(block))
            logd[0] = 0.0
            for n in orbits.steps(n_max):
                idx = orbits.idx
                logd[n, idx] = logd[n - 1, idx] + np.log(np.abs(orbits.factor))
                logw[n, idx] = np.log(orbits.absw)
                lengths[idx] = n + 1
        ns, alive, pm0, mids = ref_prefix_scan(logw, lengths - 1)
        lw_n = logw[1:len(ns) + 1]
        with np.errstate(invalid="ignore"):
            base = logd[1:len(ns) + 1] - ns[:, None] * log_l0
            accs["eq_1dim_der"].add(first, ns, base - (d - 1) * pm0, alive)
            accs["prop21i"].add(first, ns, base, alive & (pm0 >= log_delta))
            accs["prop21iii"].add(first, ns, base, alive & (pm0 >= lw_n))
            clamp = (d - 1) * np.minimum(0.0, logw[0] - lw_n)
            accs["prop21ii"].add(
                first, ns, base - clamp,
                alive & (logw[0] < log_delta) & (lw_n <= log_delta) & (mids > log_delta))
    return {k: a.to_audit() for k, a in accs.items()}


def ref_block_tame(map, traces, lambda0):
    d = map.degree
    main = RefAcc("thm12_main", lambda0, None)
    amin = RefAcc("thm12_min", lambda0, None)
    ns, alive, pm0, _, lw_n, base, _ = ref_tame_scan(traces, math.log(lambda0))
    alive &= ~(np.abs(traces.z0s) >= map.r0)
    with np.errstate(invalid="ignore"):
        main.add(0, ns, base - (d - 1) * pm0, alive)
        amin.add(0, ns, base, alive & (lw_n <= pm0))
    return main.to_audit(), amin.to_audit()


def ref_block_return(map, traces, lambda0, delta0, eta0=None):
    if eta0 is None:
        eta0 = map.r0 / 10.0
    log_d0 = math.log(delta0)
    d = map.degree
    acc = RefAcc("lem34", lambda0, delta0)
    ns, alive, _, mids, lw_n, base, lw_0 = ref_tame_scan(traces, math.log(lambda0))
    alive &= ~(np.abs(traces.z0s) >= eta0) & ~(lw_0 > log_d0)
    with np.errstate(invalid="ignore"):
        clamp = (d - 1) * np.minimum(0.0, lw_0 - lw_n)
        acc.add(0, ns, base - clamp, alive & (lw_n <= log_d0) & (mids >= lw_n))
    return acc.to_audit()


def ref_block_side(map, traces, lambda0, delta, eta=None):
    if eta is None:
        eta = map.r0 / 10.0
    log_delta = math.log(delta)
    d = map.degree
    a31 = RefAcc("lem31", lambda0, delta)
    a32 = RefAcc("lem32", lambda0, delta)
    a33 = RefAcc("lem33", lambda0, delta)
    ns, alive, pm0, mids, lw_n, base, lw_0 = ref_tame_scan(traces, math.log(lambda0))
    near = alive & (np.abs(traces.z0s) < eta)
    line = alive & (traces.z0s == 0) & (lw_0 < log_delta + math.log(2.0))
    with np.errstate(invalid="ignore"):
        floor = near & (pm0 >= log_delta)
        a31.add(0, ns, base, floor)
        a32.add(0, ns, base, floor & (lw_n <= log_delta))
        clamp = (d - 1) * np.minimum(0.0, lw_0 - lw_n)
        a33.add(0, ns, base - clamp,
                line & (lw_n < log_delta + math.log(2.0))
                & (mids > log_delta - math.log(2.0)))
    return {a.statement: a.to_audit() for a in (a31, a32, a33)}


# ---------------------------------------------------------------------------
# reference copy of the per-trace audits the block scan replaced


def _ref_add(acc, start_idx, ns, ratio_logs):
    """The per-trace path's accumulator step: one start, ratios at ns."""
    acc.add(start_idx, ns, ratio_logs[:, None], np.ones((len(ns), 1), dtype=bool))


def _ref_trace_arrays(trace):
    with np.errstate(divide="ignore"):
        logw = np.log(np.abs(trace.ws))
    logd = trace.log_vder
    flags = np.asarray(trace.tame_flags, dtype=bool)
    not_tame = np.nonzero(~flags)[0]
    tame_len = int(not_tame[0]) if len(not_tame) else len(flags)
    return logw, logd, tame_len


def ref_audit_tame(map, traces, lambda0):
    log_l0 = math.log(lambda0)
    d = map.degree
    main = RefAcc("thm12_main", lambda0, None)
    amin = RefAcc("thm12_min", lambda0, None)
    for idx, trace in enumerate(traces):
        if abs(trace.z0) >= map.r0:
            continue
        logw, logd, tame_len = _ref_trace_arrays(trace)
        if tame_len < 1 or len(trace) < 2:
            continue
        n_hi = min(tame_len, len(trace) - 1)
        ns = np.arange(1, n_hi + 1)
        pm0 = np.minimum.accumulate(logw)[ns - 1]
        base = logd[ns] - ns * log_l0
        _ref_add(main, idx, ns, base - (d - 1) * pm0)
        sel = logw[ns] <= pm0
        _ref_add(amin, idx, ns[sel], base[sel])
    return main.to_audit(), amin.to_audit()


def ref_audit_return(map, traces, lambda0, delta0, eta0=None):
    if eta0 is None:
        eta0 = map.r0 / 10.0
    log_l0 = math.log(lambda0)
    log_d0 = math.log(delta0)
    d = map.degree
    acc = RefAcc("lem34", lambda0, delta0)
    for idx, trace in enumerate(traces):
        if abs(trace.z0) >= eta0:
            continue
        logw, logd, tame_len = _ref_trace_arrays(trace)
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
        _ref_add(acc, idx, ns[sel], base - clamp)
    return acc.to_audit()


def ref_audit_side_lemmas(map, traces, lambda0, delta, eta=None):
    if eta is None:
        eta = map.r0 / 10.0
    log_l0 = math.log(lambda0)
    log_delta = math.log(delta)
    d = map.degree
    a31 = RefAcc("lem31", lambda0, delta)
    a32 = RefAcc("lem32", lambda0, delta)
    a33 = RefAcc("lem33", lambda0, delta)
    for idx, trace in enumerate(traces):
        logw, logd, tame_len = _ref_trace_arrays(trace)
        if tame_len < 1 or len(trace) < 2:
            continue
        n_hi = min(tame_len, len(trace) - 1)
        ns = np.arange(1, n_hi + 1)
        pm0 = np.minimum.accumulate(logw)[ns - 1]
        lw_n = logw[ns]
        base = logd[ns] - ns * log_l0
        if abs(trace.z0) < eta:
            sel = pm0 >= log_delta
            _ref_add(a31, idx, ns[sel], base[sel])
            sel2 = sel & (lw_n <= log_delta)
            _ref_add(a32, idx, ns[sel2], base[sel2])
        if trace.z0 == 0 and logw[0] < log_delta + math.log(2.0):
            mids = np.full(len(ns), np.inf)
            if len(ns) > 1:
                mids[1:] = np.minimum.accumulate(logw[1:n_hi])
            sel = (lw_n < log_delta + math.log(2.0)) & (mids > log_delta - math.log(2.0))
            clamp = (d - 1) * np.minimum(0.0, logw[0] - lw_n[sel])
            _ref_add(a33, idx, ns[sel], base[sel] - clamp)
    return {a.statement: a.to_audit() for a in (a31, a32, a33)}


# ---------------------------------------------------------------------------


class TestStatementTable:
    """bounds.STATEMENTS declares every statement an audit emits, once."""

    RULE_ONE = {"prop21ii", "lem33", "lem34", "lem25"}

    def test_the_audits_emit_exactly_the_table(self, cheb):
        traces = BD.trace_starts(cheb, [0.0, 0.01], [0.5, 0.3], 5)
        starts = [(1e-9, cheb.c0_origin + 1e-6)]
        emitted = [
            *BD.audit_onedim(cheb.f0(), [2.0], n_max=5, lambda0=0.9, delta=0.5).values(),
            *BD.audit_tame(cheb, traces, 0.8),
            BD.audit_return(cheb, traces, 0.8, 0.1),
            *BD.audit_side_lemmas(cheb, traces, 0.8, 0.5).values(),
            BD.audit_critical_value_departure(cheb, starts, 0.8),
            BD.przytycki_return(cheb, 1e-2, [(0.0, 0.005)], horizon=200),
        ]
        tags = [a.statement for a in emitted]
        assert sorted(tags) == sorted(BD.STATEMENTS)
        assert {t for t, st in BD.STATEMENTS.items() if st.constant != "fitted"} == self.RULE_ONE

    @pytest.mark.parametrize("tag", list(BD.STATEMENTS))
    def test_a_ratio_just_below_one_counts_only_under_rule_one(self, tag):
        acc = BD._Acc(tag, 0.8, None)
        acc.add(np.array([4, 9]), 3, np.array([0.0, math.log1p(-1e-6)]))
        audit = acc.to_audit()
        assert audit.violations == (tag in self.RULE_ONE)
        assert (audit.samples, audit.min_ratio_location) == (2, {"start": 9, "n": 3})

    def test_orbit_entries_carry_a_ratio_the_fold_knows(self, cheb):
        # the orbit entries are the tags the four scanned audits emit
        traces = BD.trace_starts(cheb, [0.0, 0.01], [0.5, 0.3], 5)
        orbit = {a.statement for a in (
            *BD.audit_onedim(cheb.f0(), [2.0], n_max=5, lambda0=0.9, delta=0.5).values(),
            *BD.audit_tame(cheb, traces, 0.8), BD.audit_return(cheb, traces, 0.8, 0.1),
            *BD.audit_side_lemmas(cheb, traces, 0.8, 0.5).values())}
        assert len(orbit) == 10
        for tag in orbit:
            assert BD.STATEMENTS[tag].ratio in BD._RATIOS
        for tag in set(BD.STATEMENTS) - orbit:
            assert BD.STATEMENTS[tag].ratio is None and BD.STATEMENTS[tag].admit is None
        assert set(BD.STATEMENTS) - orbit == {"lem25", "lem26"}

    def test_readme_lists_the_table(self):
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = text.split("\n## Statements\n", 1)[1].split("\n## ", 1)[0]
        listed = re.findall(r"^- `(\w+)` — constant (\S+) \(repo's reading\): `(.+)`$",
                            section, re.M)
        assert listed == [(tag, st.constant, st.inequality) for tag, st in BD.STATEMENTS.items()]


class TestAuditJson:
    def test_bound_audit_keys(self, cheb):
        a = BD.audit_onedim(cheb.f0(), [2.0], n_max=5, lambda0=0.9, delta=0.5)
        j = a["prop21i"].to_json()
        assert set(j) == {
            "statement", "lambda0", "delta", "samples",
            "fitted_constant", "min_ratio_location", "violations",
        }
        assert j["statement"] == "prop21i"
        assert j["lambda0"] == 0.9
        assert j["delta"] == 0.5

    def test_return_report_keys(self, cheb):
        rep = BD.przytycki_return(cheb, 1e-2, [(0.0, 0.005)], horizon=200)
        j = rep.to_json()
        assert set(j) == {
            "statement", "lambda0", "delta", "samples",
            "fitted_constant", "min_ratio_location", "violations",
        }
        assert j["statement"] == "lem26"
        assert j["delta"] == 1e-2


class TestOnedimClosedForm:
    """At the fixed point w=2 the ratios are (4/lam0)^n over a known factor."""

    def test_fixed_point_derivative_floor(self, cheb):
        a = BD.audit_onedim(cheb.f0(), [2.0], n_max=40, lambda0=0.9, delta=0.5)
        eq = a["eq_1dim_der"]
        # min over j<n of |w_j|^(d-1) is 2, so the minimum sits at n=1
        assert eq.fitted_constant == pytest.approx(4.0 / (0.9 * 2.0), rel=1e-12)
        assert eq.min_ratio_location == {"start": 0, "n": 1}
        assert eq.samples == 40
        assert eq.violations == 0

    def test_fixed_point_floor_variants(self, cheb):
        a = BD.audit_onedim(cheb.f0(), [2.0], n_max=40, lambda0=0.9, delta=0.5)
        for tag in ("prop21i", "prop21iii"):
            assert a[tag].fitted_constant == pytest.approx(4.0 / 0.9, rel=1e-12)
            assert a[tag].samples == 40
            assert a[tag].passed

    def test_fixed_point_never_dips(self, cheb):
        # |w_j| = 2 > delta always, so the dip-and-return family is empty
        a = BD.audit_onedim(cheb.f0(), [2.0], n_max=40, lambda0=0.9, delta=0.5)
        assert a["prop21ii"].samples == 0
        assert math.isnan(a["prop21ii"].fitted_constant)
        assert not a["prop21ii"].passed


class TestOnedimOracle:
    def test_matches_raw_rescan(self, cheb):
        rng = np.random.default_rng(42)
        starts = (rng.uniform(-2.2, 2.2, 12) + 1j * rng.uniform(-0.4, 0.4, 12)).tolist()
        audits = BD.audit_onedim(cheb.f0(), starts, n_max=25, lambda0=0.8, delta=0.3)
        ora = oracle_onedim([-2.0, 0.0], 2, starts, 25, 0.8, 0.3)
        for tag, audit in audits.items():
            recs = ora[tag]
            assert audit.samples == len(recs)
            if not recs:
                continue
            idx, n, lo = min(recs, key=lambda t: t[2])
            assert audit.fitted_constant == pytest.approx(math.exp(lo), rel=1e-12)
            assert audit.min_ratio_location == {"start": idx, "n": n}

    def test_escaping_starts_contribute_alive_prefix_only(self, cheb):
        # |w0| = 3 blows past the cap in ~8 steps; the audit must record
        # exactly the steps the oracle keeps, not the full horizon
        audits = BD.audit_onedim(cheb.f0(), [3.0], n_max=30, lambda0=0.8, delta=0.3)
        ora = oracle_onedim([-2.0, 0.0], 2, [3.0], 30, 0.8, 0.3)
        n = audits["eq_1dim_der"].samples
        assert n == len(ora["eq_1dim_der"])
        assert 0 < n < 30


class TestOnedimBatch:
    def test_near_real_batch_all_pass(self, cheb):
        rng = np.random.default_rng(5)
        ws = rng.uniform(-2.0, 2.0, 1000) + 1e-6j
        audits = BD.audit_onedim(cheb.f0(), ws, n_max=100, lambda0=0.8, delta=0.5)
        for tag, a in audits.items():
            assert a.samples > 0, tag
            assert a.passed, tag
            assert a.fitted_constant > 0, tag
        assert audits["prop21ii"].violations == 0
        # the constant-1 statement should sit at or above 1 up to slack
        assert audits["prop21ii"].fitted_constant > 1 - 1e-9


class TestFiberStarts:
    """sample_fiber_starts hands over its draw, and audit_onedim draws it a
    batch at a time: the batches are the slices of one whole draw."""

    @pytest.mark.parametrize("real", [False, True])
    def test_batches_are_slices_of_the_whole_draw(self, cheb, real):
        starts = BD.sample_fiber_starts(cheb, 20000, seed=5, real=real)
        radius = 0.9 * cheb.escape_radius
        if real:
            whole = mc.draw_blocks(5, "bounds_onedim", 20000,
                                   lambda g, m: g.uniform(-radius, radius, m))
        else:
            whole = mc.draw_blocks(5, "bounds_onedim", 20000,
                                   lambda g, m: mc.uniform_disk(g, m, radius))
        whole = whole.astype(complex, copy=False)
        batches = list(starts.batches())
        assert len(starts) == 20000
        assert [first for first, _, _ in batches] == [0, mc.BATCH_SIZE, 2 * mc.BATCH_SIZE]
        assert_bitwise(np.concatenate([w for _, _, w in batches]), whole)
        assert (BD.audit_onedim(cheb.f0(), starts, 30, 0.8, 1.0)
                == BD.audit_onedim(cheb.f0(), whole, 30, 0.8, 1.0))

    def test_checks_run_before_any_draw(self, cheb):
        for count in (0, -1):
            with pytest.raises(EmptySample):
                BD.sample_fiber_starts(cheb, count, seed=5)
        with pytest.raises(PreconditionViolated):
            BD.sample_fiber_starts(cheb, 10, seed=5, w_radius=0.0)
        with pytest.raises(PreconditionViolated):
            BD.sample_fiber_starts(cheb, 10, seed=5, w_radius=1.5e308, real=True)


class TestOnedimValidation:
    def test_lambda0_range(self, cheb):
        with pytest.raises(PreconditionViolated):
            BD.audit_onedim(cheb.f0(), [2.0], n_max=5, lambda0=1.1, delta=0.5)
        with pytest.raises(PreconditionViolated):
            BD.audit_onedim(cheb.f0(), [2.0], n_max=5, lambda0=0.0, delta=0.5)

    def test_delta_positive(self, cheb):
        with pytest.raises(PreconditionViolated):
            BD.audit_onedim(cheb.f0(), [2.0], n_max=5, lambda0=0.9, delta=0.0)

    def test_attracting_cycle_rejected(self):
        f0 = basilica_map().f0()
        with pytest.raises(AttractingCyclePresent):
            BD.audit_onedim(f0, [0.1], n_max=5, lambda0=0.9, delta=0.5)


class TestTame:
    def test_invariant_line_agrees_with_onedim(self, cheb):
        rng = np.random.default_rng(3)
        ws = rng.uniform(-2.0, 2.0, 100)
        traces = traces_of(cheb, [(0.0, w) for w in ws], 50)
        main, _ = BD.audit_tame(cheb, traces, 0.9)
        oned = BD.audit_onedim(cheb.f0(), ws, n_max=50, lambda0=0.9, delta=0.5)
        eq = oned["eq_1dim_der"]
        assert main.samples == eq.samples
        assert main.fitted_constant == pytest.approx(eq.fitted_constant, rel=1e-9)

    def test_min_variant_is_a_restriction(self, cheb):
        rng = np.random.default_rng(3)
        traces = traces_of(cheb, [(0.0, w) for w in rng.uniform(-2.0, 2.0, 100)], 50)
        main, amin = BD.audit_tame(cheb, traces, 0.9)
        assert 0 < amin.samples < main.samples
        assert amin.passed and main.passed

    def test_base_outside_r0_skipped(self, cheb, stored):
        # traces built elsewhere may carry a base outside B(0, r0)
        tr = make_trace(cheb, 0.9, [0.3, 1.91, 1.6481], [0.0, 1.0, 2.0])
        main, amin = BD.audit_tame(cheb, stack([tr]), 0.9)
        assert main.samples == 0 and amin.samples == 0

    def test_untame_start_skipped(self, cheb):
        # |z0| > |w0|^d from step 0, so there is no tame prefix at all
        assert not iterate(cheb, (0.4, 1e-3), 20).tame_flags[0]
        main, amin = BD.audit_tame(cheb, traces_of(cheb, [(0.4, 1e-3)], 20), 0.9)
        assert main.samples == 0 and amin.samples == 0

    def test_lambda0_must_dominate_lam(self, cheb):
        with pytest.raises(PreconditionViolated):
            BD.audit_tame(cheb, traces_of(cheb, [], 1), 0.4)

    def test_attracting_cycle_rejected(self):
        with pytest.raises(AttractingCyclePresent):
            BD.audit_tame(basilica_map(), traces_of(basilica_map(), [], 1), 0.9)

    def test_perturbed_batch_positive_constants(self, cheb):
        rng = np.random.default_rng(17)
        z0 = (0.1 * np.sqrt(rng.uniform(0, 1, 300))
              * np.exp(2j * np.pi * rng.uniform(0, 1, 300)))
        w0 = rng.uniform(-2.0, 2.0, 300).astype(complex)
        traces = BD.trace_starts(cheb, z0, w0, 200)
        main, amin = BD.audit_tame(cheb, traces, 0.8)
        assert main.passed and main.fitted_constant > 0
        assert amin.passed and amin.fitted_constant > 0


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestBlockScanMatchesPerTrace:
    """The scan of stepped starts against the per-trace reference on
    iterate_block's columns, field by field; the reference warns where
    w0 = 0 gives -inf - (-inf)."""

    MAPS = {
        "chebyshev": chebyshev_map(),
        "chebyshev_complex_lam": chebyshev_map(0.4 + 0.3j),
        "complex_unicritical": build_map(0.5 + 0.2j, 2, [[-1.3 + 0.1j, 1.0, 0.3]]),
        "cubic_general": build_map(0.6, 3, [[1.0 + 0.5j, 1.0], [-0.5, 0.4j], [0.3]],
                                   mode="general"),
    }

    @staticmethod
    def random_block(map, seed, count=400, n=60):
        """Starts mixing the line, untame bases, escapes and w0 = 0."""
        rng = np.random.default_rng(seed)
        z0 = (0.9 * map.r0 * np.sqrt(rng.uniform(0, 1, count))
              * np.exp(2j * np.pi * rng.uniform(0, 1, count)))
        w0 = (1.3 * map.escape_radius * np.sqrt(rng.uniform(0, 1, count))
              * np.exp(2j * np.pi * rng.uniform(0, 1, count)))
        z0[::5] = 0.0  # on the invariant line
        w0[1::7] *= 1e-3  # |z0|^k > |w0|^d: untame from the start
        w0[2::11] = 0.0
        w0[3::13] = 1.5 * map.escape_radius  # escaped before the first step
        w0[4::9] = rng.uniform(-0.1, 0.1, len(w0[4::9]))  # small returns
        return iterate_block(map, z0, w0, n)

    @staticmethod
    def starts_of(block):
        """The block's starts and horizon, for the audits to step."""
        return BD.TraceStarts(block.z0s, block.ws[0], block.ws.shape[0] - 1)

    def assert_same(self, block, map, lambda0, delta):
        traces = list(columns(block, map))
        starts = self.starts_of(block)
        for eta in (None, 0.0, 0.5 * map.r0):
            got = BD.audit_return(map, starts, lambda0, delta, eta)
            assert got == ref_audit_return(map, traces, lambda0, delta, eta)
            got = BD.audit_side_lemmas(map, starts, lambda0, delta, eta)
            assert got == ref_audit_side_lemmas(map, traces, lambda0, delta, eta)
        if not BD.find_attracting_cycles(map):
            assert BD.audit_tame(map, starts, lambda0) == ref_audit_tame(map, traces, lambda0)

    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_random_blocks(self, name):
        m = self.MAPS[name]
        lambda0 = max(0.8, abs(m.lam) + 0.05)
        samples = 0
        for seed in range(3):
            block = self.random_block(m, seed)
            for delta in (0.05, 0.5):
                self.assert_same(block, m, lambda0, delta)
            samples += BD.audit_tame(m, self.starts_of(block), lambda0)[0].samples
        assert samples > 0

    def test_attracting_cycle_map_return_and_side(self):
        # the return audit runs (and fails) on maps the tame audit rejects
        m = basilica_map()
        block = self.random_block(m, 7)
        self.assert_same(block, m, 0.8, 0.05)
        assert BD.audit_return(m, self.starts_of(block), 0.8, 0.05).violations > 0

    def test_sampled_tame_input(self, cheb):
        starts = BD.sample_traces(cheb, 2000, 100, seed=3)
        block = iterate_block(cheb, starts.z0s, starts.w0s, starts.n)
        assert BD.audit_tame(cheb, starts, 0.8) == ref_audit_tame(
            cheb, list(columns(block, cheb)), 0.8)

    def test_ties_go_to_the_earliest_start_then_n(self, cheb, stored):
        # |Df^n| = lam0^n: every admitted pair of every column has ratio 1
        tr = make_trace(cheb, 0.0, [0.04, 0.2, 0.04, 0.2, 0.04],
                        [k * math.log(0.8) for k in range(5)])
        block = stack([tr, tr, tr])
        a = BD.audit_return(cheb, block, 0.8, 0.05)
        assert a == ref_audit_return(cheb, [tr, tr, tr], 0.8, 0.05)
        assert a.samples == 6 and a.fitted_constant == 1.0
        assert a.min_ratio_location == {"start": 0, "n": 2}
        side = BD.audit_side_lemmas(cheb, block, 0.8, 0.05)
        assert side == ref_audit_side_lemmas(cheb, [tr, tr, tr], 0.8, 0.05)
        assert side["lem33"].samples > 0

    def test_empty_block(self, cheb):
        block = traces_of(cheb, [], 5)
        assert BD.audit_tame(cheb, block, 0.8) == ref_audit_tame(cheb, [], 0.8)
        assert BD.audit_return(cheb, block, 0.8, 0.05).samples == 0
        assert BD.audit_side_lemmas(cheb, block, 0.8, 0.05)["lem31"].samples == 0


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestStreamMatchesBlockScan:
    """The row-streamed scan of stepped starts (TraceStarts) against the
    block scan it replaced, whole BoundAudits compared with ==."""

    MAPS = TestBlockScanMatchesPerTrace.MAPS

    @staticmethod
    def random_starts(map, seed, count=600):
        """Starts mixing the line, untame bases, escapes, exact critical
        hits (w0 = 0) and small returns."""
        rng = np.random.default_rng(seed)
        z0 = (0.9 * map.r0 * np.sqrt(rng.uniform(0, 1, count))
              * np.exp(2j * np.pi * rng.uniform(0, 1, count)))
        w0 = (1.3 * map.escape_radius * np.sqrt(rng.uniform(0, 1, count))
              * np.exp(2j * np.pi * rng.uniform(0, 1, count)))
        z0[::5] = 0.0
        w0[1::7] *= 1e-3  # |z0|^k > |w0|^d: not tame at step 0
        w0[2::11] = 0.0  # a critical point: log|Df^n| = -inf from n = 1
        w0[3::13] = 1.5 * map.escape_radius
        w0[4::9] = rng.uniform(-0.1, 0.1, len(w0[4::9]))
        z0[6::17] = rng.uniform(-1e-6, 1e-6, len(z0[6::17]))
        return z0, w0

    @staticmethod
    def assert_same(map, z0, w0, n, lambda0, delta, etas=(None, 0.0, 0.5)):
        """The stepped starts against the block scan on iterate_block's
        block, at eta = None or a multiple of r0.  Starts at |z0| >= r0 are
        stepped from z0 = 0 in the block and swapped into its z0s
        afterwards; at eta < r0 every audit must filter them out."""
        block = iterate_block(map, np.where(np.abs(z0) >= map.r0, 0.0, z0), w0, n)
        block = dataclasses.replace(block, z0s=np.asarray(z0, dtype=complex))
        starts = BD.TraceStarts(block.z0s, np.asarray(w0, dtype=complex), n)
        for eta in (None if e is None else e * map.r0 for e in etas):
            assert (BD.audit_return(map, starts, lambda0, delta, eta)
                    == ref_block_return(map, block, lambda0, delta, eta))
            assert (BD.audit_side_lemmas(map, starts, lambda0, delta, eta)
                    == ref_block_side(map, block, lambda0, delta, eta))
        if not BD.find_attracting_cycles(map):
            want = ref_block_tame(map, block, lambda0)
            assert BD.audit_tame(map, starts, lambda0) == want
            return want[0].samples
        return 0

    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_random_batches(self, name):
        m = self.MAPS[name]
        lambda0 = max(0.8, abs(m.lam) + 0.05)
        samples = 0
        for seed in range(3):
            z0, w0 = self.random_starts(m, 100 + seed)
            for delta in (0.05, 0.5):
                samples += self.assert_same(m, z0, w0, 60, lambda0, delta,
                                            (None, 0.0, 0.5, 2.0))
            z0[7::19] = 1.2 * m.r0 * np.exp(1j * seed)  # outside B(0, r0)
            self.assert_same(m, z0, w0, 60, lambda0, 0.5)
        assert samples > 0

    def test_attracting_cycle_map(self):
        m = basilica_map()
        z0, w0 = self.random_starts(m, 9)
        self.assert_same(m, z0, w0, 40, 0.8, 0.05)

    def test_horizon_one(self, cheb):
        z0, w0 = self.random_starts(cheb, 4)
        self.assert_same(cheb, z0, w0, 1, 0.8, 0.5)

    def test_empty_batch(self, cheb):
        self.assert_same(cheb, np.zeros(0), np.zeros(0), 5, 0.8, 0.05)
        empty = BD.TraceStarts(np.zeros(0, dtype=complex), np.zeros(0, dtype=complex), 0)
        assert BD.audit_tame(cheb, empty, 0.8)[0].samples == 0

    def test_ties_across_the_scan(self, cheb):
        # one start copied to both sides of position 4096 and earlier:
        # the least ratio goes to its earliest copy, then its earliest n
        z0, w0 = self.random_starts(cheb, 5, count=4200)
        ok = np.abs(z0) < cheb.r0
        z0, w0 = z0[ok], w0[ok]
        block = iterate_block(cheb, z0, w0, 40)
        main, _ = ref_block_tame(cheb, block, 0.8)
        s = main.min_ratio_location["start"]
        for at in (4095, 4096, 4150):
            z0[at], w0[at] = z0[s], w0[s]
        block = iterate_block(cheb, z0, w0, 40)
        want = ref_block_tame(cheb, block, 0.8)
        assert want[0].min_ratio_location["start"] == min(s, 4095)
        assert BD.audit_tame(cheb, BD.TraceStarts(z0, w0, 40), 0.8) == want

    def test_tie_at_a_later_row_goes_to_the_earlier_start(self, cheb, stored):
        # ratio 1 at (start 1, n 1) and at (start 0, n 2): the streamed scan
        # meets start 1 first, yet the least (ratio, start, n) is start 0
        l8 = math.log(0.8)
        a = make_trace(cheb, 0.0, [1.0, 1.0, 1.0], [0.0, 5.0, 2 * l8])
        b = make_trace(cheb, 0.0, [1.0, 1.0, 1.0], [0.0, l8, 10.0])
        block = stack([a, b])
        want = ref_block_tame(cheb, block, 0.8)
        assert want[0].min_ratio_location == {"start": 0, "n": 2}
        assert want[0].fitted_constant == 1.0
        assert BD.audit_tame(cheb, block, 0.8) == want

    @staticmethod
    def onedim_starts(seed, count):
        rng = np.random.default_rng(seed)
        w0 = 2.3 * np.sqrt(rng.uniform(0, 1, count)) * np.exp(2j * np.pi * rng.uniform(0, 1, count))
        w0[::6] = rng.uniform(-2.0, 2.0, len(w0[::6]))  # bounded real orbits
        w0[1::97] = 0.0  # exact critical hit
        w0[2::89] = 1e30  # past the cap after one step
        w0[3::83] = 1e60  # past the cap at step 0
        w0[4::79] = 3.0  # past the cap after a few steps
        return w0

    @pytest.mark.parametrize("n_max", [1, 7, 60])
    def test_onedim_random_batches(self, cheb, n_max):
        for f0 in (cheb.f0(), self.MAPS["cubic_general"].f0()):
            for seed in range(2):
                w0 = self.onedim_starts(seed, 4500)
                for delta in (0.05, 1.0):
                    want = ref_block_onedim(f0, w0, n_max, 0.8, delta)
                    assert BD.audit_onedim(f0, w0, n_max, 0.8, delta) == want

    def test_onedim_ties_across_a_block_boundary(self, cheb):
        # the block scan kept the earlier block's minimum on a tie, so a
        # start copied into the next block must not take the location
        f0 = cheb.f0()
        w0 = self.onedim_starts(3, 8300)
        eq = ref_block_onedim(f0, w0, 30, 0.8, 0.5)["prop21iii"]
        s = eq.min_ratio_location["start"]
        for at in (4095, 4096, 8192, 8299):
            w0[at] = w0[s]
        want = ref_block_onedim(f0, w0, 30, 0.8, 0.5)
        assert want["prop21iii"].min_ratio_location["start"] == min(s, 4095)
        assert BD.audit_onedim(f0, w0, 30, 0.8, 0.5) == want

    def test_onedim_empty_and_capped(self, cheb):
        f0 = cheb.f0()
        for w0 in ([], [1e60], [0.0], [1e30, 0.0, 2.0]):
            assert BD.audit_onedim(f0, w0, 5, 0.9, 0.5) == ref_block_onedim(f0, w0, 5, 0.9, 0.5)


BATCH_COUNTS = [mc.BATCH_SIZE - 1, mc.BATCH_SIZE, mc.BATCH_SIZE + 1,
                2 * mc.BATCH_SIZE + 37]


class TestBatchedScan:
    """Stepped starts are scanned in slices of mc.BATCH_SIZE.  Every audit
    equals, bit for bit, the one-pass block scan of stored histories."""

    @pytest.mark.parametrize("count", BATCH_COUNTS)
    def test_onedim(self, cheb, count):
        w0 = TestStreamMatchesBlockScan.onedim_starts(count, count)
        for delta in (0.05, 1.0):
            want = ref_block_onedim(cheb.f0(), w0, 30, 0.8, delta)
            assert want["eq_1dim_der"].samples > count
            assert BD.audit_onedim(cheb.f0(), w0, 30, 0.8, delta) == want

    @pytest.mark.parametrize("count", BATCH_COUNTS)
    def test_trace_audits(self, cheb, count):
        z0, w0 = TestStreamMatchesBlockScan.random_starts(cheb, count, count)
        samples = 0
        for delta in (0.05, 0.5):
            samples += TestStreamMatchesBlockScan.assert_same(
                cheb, z0, w0, 30, 0.8, delta)
        assert samples > count

    def test_onedim_tie_across_a_batch_boundary(self, cheb):
        # the least ratio's start, moved to both sides of the first batch
        # boundary and into the third batch: the earliest copy wins
        f0, b = cheb.f0(), mc.BATCH_SIZE
        w0 = TestStreamMatchesBlockScan.onedim_starts(3, 2 * b + 37)
        s = BD.audit_onedim(f0, w0, 30, 0.8, 0.5)["prop21iii"].min_ratio_location["start"]
        moved, w0[s] = w0[s], 1e60  # past the cap at step 0: no pairs
        for at in (b - 1, b, 2 * b):
            w0[at] = moved
        want = ref_block_onedim(f0, w0, 30, 0.8, 0.5)
        assert want["prop21iii"].min_ratio_location["start"] == b - 1
        assert BD.audit_onedim(f0, w0, 30, 0.8, 0.5) == want

    def test_tame_tie_across_a_batch_boundary(self, cheb):
        b = mc.BATCH_SIZE
        z0, w0 = TestStreamMatchesBlockScan.random_starts(cheb, 6, count=2 * b + 37)
        z0 = np.where(np.abs(z0) < cheb.r0, z0, 0.0)
        # thm12_main is d/lambda0 at n = 1 for every start, so take thm12_min
        amin = BD.audit_tame(cheb, BD.TraceStarts(z0, w0, 40), 0.8)[1]
        s = amin.min_ratio_location["start"]
        moved = z0[s], w0[s]
        w0[s] = 1.5 * cheb.escape_radius  # escaped before the first step
        for at in (b - 1, b, 2 * b):
            z0[at], w0[at] = moved
        want = ref_block_tame(cheb, iterate_block(cheb, z0, w0, 40), 0.8)
        assert want[1].min_ratio_location["start"] == b - 1
        assert BD.audit_tame(cheb, BD.TraceStarts(z0, w0, 40), 0.8) == want

    def test_accumulator_ignores_batch_order(self):
        # three batches of starts with many tied ratios, folded in any
        # order: the least (ratio, start, n), the count and the violations
        # come out the same
        rng = np.random.default_rng(5)
        calls = [(lo, n, rng.choice([-0.5, -0.25, 0.0, 0.3], 100))
                 for lo in (0, 100, 200) for n in range(1, 6)]

        def fold(order):
            acc = BD._Acc("lem34", 0.8, None)
            for lo in order:
                for at, n, logs in calls:
                    if at == lo:
                        acc.add(np.arange(lo, lo + 100), n, logs)
            return acc.to_audit()

        least = min((v, lo + c, n) for lo, n, logs in calls for c, v in enumerate(logs))
        want = fold([0, 100, 200])
        assert want.min_ratio_location == {"start": least[1], "n": least[2]}
        assert want.samples == 1500 and want.violations > 0
        assert fold([200, 100, 0]) == fold([100, 200, 0]) == want


class TestBatchSizeInvariance:
    """The orbit audits report the same whatever mc.BATCH_SIZE their starts
    are stepped in.  The starts are given as arrays: FiberStarts draws
    through mc.draw_batches, whose size default is bound when mc loads and
    must be a multiple of its 4096-draw block, so patching mc.BATCH_SIZE
    never reaches it."""

    MAPS = {"unicritical": chebyshev_map(),
            "general": build_map(0.5, 2, [[-2.0, 1.0], [0.0]], mode="general")}

    @staticmethod
    def reports(map, z0, w0):
        traces = BD.TraceStarts(z0, w0, 40)
        audits = [*BD.audit_tame(map, traces, 0.8),
                  BD.audit_return(map, BD.TraceStarts(z0, w0, 60), 0.8, 0.05, 0.5 * map.r0),
                  *BD.audit_side_lemmas(map, traces, 0.8, 0.5, 0.5 * map.r0).values(),
                  *BD.audit_onedim(map.f0(), w0, 60, 0.8, 0.5).values()]
        return [a.to_json() for a in audits]

    @pytest.mark.parametrize("mode", sorted(MAPS))
    def test_reports_match_the_default_batch(self, monkeypatch, mode):
        m = self.MAPS[mode]
        z0, w0 = TestStreamMatchesBlockScan.random_starts(m, 11)
        z0 = np.where(np.abs(z0) < m.r0, z0, 0.0)
        want = self.reports(m, z0, w0)
        assert min(r["samples"] for r in want) > 0
        for size in (1, 3, 7):
            monkeypatch.setattr(mc, "BATCH_SIZE", size)
            assert self.reports(m, z0, w0) == want


class TestScanMemory:
    """tracemalloc peaks at the benchmark's sizes; the block scan held
    (n+1) x count histories: 17.9 MiB (onedim) and 23.8 MiB (tame)."""

    def test_onedim_20000_by_200(self, cheb, peak_mib):
        ws = mc.draw_blocks(3, "bounds_onedim", 20000,
                            lambda g, m: mc.uniform_disk(g, m, 0.9 * cheb.escape_radius))
        assert peak_mib(lambda: BD.audit_onedim(cheb.f0(), ws, 200, 0.8, 1.0)) < 8.0

    def test_tame_5000_by_100(self, cheb, peak_mib):
        peak = peak_mib(
            lambda: BD.audit_tame(cheb, BD.sample_traces(cheb, 5000, 100, 3), 0.8))
        assert peak < 4.0


class TestLambdaMonotonicity:
    def test_fitted_never_increases_with_lambda0(self, cheb):
        rng = np.random.default_rng(29)
        ws = rng.uniform(-2.0, 2.0, 100)
        fits = {}
        for l0 in (0.7, 0.8, 0.9):
            audits = BD.audit_onedim(cheb.f0(), ws, n_max=50, lambda0=l0, delta=0.5)
            fits[l0] = {k: a.fitted_constant for k, a in audits.items()
                        if a.samples > 0}
        for tag in fits[0.7]:
            assert fits[0.9][tag] <= fits[0.8][tag] <= fits[0.7][tag]


@pytest.mark.usefixtures("stored")
class TestReturnSynthetic:
    """Hand-built traces with unit derivative pin the right-hand side."""

    def test_equal_endpoints_pure_exponential(self, cheb):
        tr = make_trace(cheb, 1e-3, [0.04, 0.2, 0.04], [0, 0, 0])
        a = BD.audit_return(cheb, stack([tr]), 0.8, 0.05)
        # RHS = lam0^2 * min(1, 1): ratio = 1 / 0.64
        assert a.samples == 1
        assert a.fitted_constant == pytest.approx(1 / 0.64, rel=1e-12)
        assert a.violations == 0
        assert a.min_ratio_location == {"start": 0, "n": 2}

    def test_deep_return_relaxes_the_floor(self, cheb):
        tr = make_trace(cheb, 1e-3, [0.01, 0.2, 0.04], [0, 0, 0])
        a = BD.audit_return(cheb, stack([tr]), 0.8, 0.05)
        # (|w0|/|w_n|)^(d-1) = 1/4: ratio = 1 / (0.64 * 0.25)
        assert a.fitted_constant == pytest.approx(6.25, rel=1e-12)

    def test_shallow_endpoint_clamps_at_one(self, cheb):
        tr = make_trace(cheb, 1e-3, [0.04, 0.2, 0.01], [0, 0, 0])
        a = BD.audit_return(cheb, stack([tr]), 0.8, 0.05)
        assert a.fitted_constant == pytest.approx(1 / 0.64, rel=1e-12)

    def test_middle_dip_below_endpoint_excluded(self, cheb):
        # n=2 fails the "middles stay above |w_n|" hypothesis; n=1 survives
        tr = make_trace(cheb, 1e-3, [0.04, 0.001, 0.04], [0, 0, 0])
        a = BD.audit_return(cheb, stack([tr]), 0.8, 0.05)
        assert a.samples == 1
        assert a.min_ratio_location == {"start": 0, "n": 1}
        assert a.fitted_constant == pytest.approx(1.25, rel=1e-12)

    def test_violation_counted(self, cheb):
        tr = make_trace(cheb, 1e-3, [0.04, 0.2, 0.04], [0, 0, math.log(0.5)])
        a = BD.audit_return(cheb, stack([tr]), 0.8, 0.05)
        assert a.violations == 1
        assert a.fitted_constant == pytest.approx(0.5 / 0.64, rel=1e-12)

    def test_base_radius_filter(self, cheb):
        # default eta0 = r0/10 = 0.05; a base at 0.06 is out of range
        tr = make_trace(cheb, 0.06, [0.04, 0.2, 0.04], [0, 0, 0])
        a = BD.audit_return(cheb, stack([tr]), 0.8, 0.05)
        assert a.samples == 0

    def test_delta0_positive(self, cheb):
        with pytest.raises(PreconditionViolated):
            BD.audit_return(cheb, stack([]), 0.8, 0.0)


class TestReturnOnOrbits:
    def test_cycle_free_map_never_violates(self, cheb):
        rng = np.random.default_rng(23)
        z0 = rng.uniform(1e-9, 1e-7, 400).astype(complex)
        w0 = rng.uniform(-0.05, 0.05, 400).astype(complex)
        traces = BD.trace_starts(cheb, z0, w0, 250)
        a = BD.audit_return(cheb, traces, 0.8, 0.05)
        assert a.samples > 100
        assert a.violations == 0
        assert a.fitted_constant > 1.0

    def test_attracting_cycle_breaks_the_bound(self):
        # the fiber cycle of w^2 - 1 collapses derivatives through w = 0
        # faster than any uniform return floor; the audit must say so
        m = basilica_map()
        a = BD.audit_return(m, traces_of(m, [(1e-6, 0.04)], 10), 0.8, 0.05)
        assert a.samples >= 2
        assert a.violations == a.samples
        assert a.fitted_constant < 0.3


class TestSideLemmas:
    def test_floor_variants_on_generic_starts(self, cheb):
        rng = np.random.default_rng(31)
        z0 = rng.uniform(-0.04, 0.04, 300).astype(complex)
        w0 = rng.uniform(-2.0, 2.0, 300).astype(complex)
        traces = BD.trace_starts(cheb, z0, w0, 60)
        side = BD.audit_side_lemmas(cheb, traces, 0.8, 0.5)
        assert side["lem31"].passed and side["lem31"].fitted_constant > 0
        assert side["lem32"].passed and side["lem32"].fitted_constant > 0
        assert side["lem32"].samples < side["lem31"].samples
        # off-line starts never feed the invariant-line variant
        assert side["lem33"].samples == 0

    def test_small_return_variant_on_the_line(self, cheb):
        rng = np.random.default_rng(37)
        traces = traces_of(cheb, [(0.0, w) for w in rng.uniform(-0.9, 0.9, 200)], 60)
        side = BD.audit_side_lemmas(cheb, traces, 0.8, 0.5)
        assert side["lem33"].samples > 0
        assert side["lem33"].violations == 0
        assert side["lem33"].fitted_constant > 1 - 1e-9

    def test_eta_filter_empties_offline_variants(self, cheb):
        rng = np.random.default_rng(31)
        z0 = rng.uniform(0.01, 0.04, 50).astype(complex)
        w0 = rng.uniform(-2.0, 2.0, 50).astype(complex)
        traces = BD.trace_starts(cheb, z0, w0, 30)
        side = BD.audit_side_lemmas(cheb, traces, 0.8, 0.5, eta=0.0)
        assert side["lem31"].samples == 0
        assert side["lem32"].samples == 0

    def test_delta_positive(self, cheb):
        with pytest.raises(PreconditionViolated):
            BD.audit_side_lemmas(cheb, traces_of(cheb, [], 1), 0.8, -1.0)


class TestCriticalValueDeparture:
    def test_contract_range_always_achieves(self, cheb):
        rng = np.random.default_rng(11)
        c0 = cheb.c0_origin
        d = cheb.degree
        dw = 10.0 ** rng.uniform(-4, -2, 50)
        dz = 10.0 ** rng.uniform(-4, -2, 50)
        starts = [(1e-9, c0 + dl**d) for dl in dw]
        starts += [(dl**d, c0 + 1e-11) for dl in dz]
        a = BD.audit_critical_value_departure(cheb, starts, 0.8)
        assert a.samples == 100
        assert a.violations == 0
        assert a.fitted_constant > 1 - 1e-9
        assert a.passed

    def test_degenerate_start_excluded(self, cheb):
        a = BD.audit_critical_value_departure(cheb, [(0.0, cheb.c0_origin)], 0.8)
        assert a.samples == 0

    def test_far_start_excluded(self, cheb):
        a = BD.audit_critical_value_departure(cheb, [(0.0, cheb.c0_origin + 0.1)], 0.8)
        assert a.samples == 0

    def test_line_start_matches_one_dimensional_scan(self, cheb):
        s = 1e-4
        c0 = cheb.c0_origin
        d = cheb.degree
        a = BD.audit_critical_value_departure(cheb, [(0.0, c0 + s)], 0.8)
        assert a.samples == 1 and a.violations == 0
        # raw scan: first n with |Df0^n(w1)| * s^((d-1)/d) >= lam0^n
        w, acc = c0 + s, 0.0
        dl = s ** (1.0 / d)
        hit = None
        for n in range(1, 50):
            acc += math.log(abs(d * w ** (d - 1)))
            w = w**d + c0
            r = acc - n * math.log(0.8) + (d - 1) * math.log(dl)
            if r >= math.log1p(-1e-9):
                hit = (n, math.exp(r))
                break
        assert a.min_ratio_location["n"] == hit[0]
        assert a.fitted_constant == pytest.approx(hit[1], rel=1e-12)

    def test_general_mode_rejected(self):
        # c(0) is not the critical value of a general-mode fiber map
        gen = build_map(0.5 + 0.2j, 3, [[0.1, 1.0], [0.2j, 0.3], [-0.4]], mode="general")
        with pytest.raises(PreconditionViolated, match="general-mode"):
            BD.audit_critical_value_departure(gen, [(0.0, gen.c0_origin + 1e-4)], 0.8)

    def test_default_mu_is_the_standard_constant(self, cheb):
        starts = [(1e-9, cheb.c0_origin + 1e-6)]
        a = BD.audit_critical_value_departure(cheb, starts, 0.8)
        b = BD.audit_critical_value_departure(
            cheb, starts, 0.8, mu=mu_constants(cheb.degree)[0])
        assert a.fitted_constant == b.fitted_constant
        assert a.min_ratio_location == b.min_ratio_location


def ref_przytycki_lists(map, epsilon, per_axis, horizon=1000):
    """critical_ball_grid and przytycki_return as they built the lattice and
    the admitted starts as lists of pairs: the audit's samples, n_min and
    location."""
    rz = epsilon ** (1.0 / map.k)
    grid = [(z, w) for z in np.linspace(-rz, rz, per_axis)
            for w in np.linspace(-epsilon, epsilon, per_axis)]
    pts = [(complex(z), complex(w)) for z, w in grid]
    sel = [(z, w) for z, w in pts if abs(z) ** map.k <= epsilon and abs(w) <= epsilon]
    first = np.full(len(sel), -1, dtype=int)
    orbits = _Orbits(map, np.array([z for z, _ in sel]), np.array([w for _, w in sel]),
                     bound=max(map.escape_radius * 10.0, 100.0), lam_left=True)
    for n in orbits.steps(horizon):
        hit = orbits.absw <= epsilon
        first[orbits.idx[hit]] = n
        orbits.retire(hit)
    n_min = int(first[first > 0].min())
    return grid, (len(sel), n_min,
                  {"start": int(np.nonzero(first == n_min)[0][0]), "n": n_min})


class TestPrzytyckiReturn:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("per_axis", [15, 20, 100])
    def test_arrays_match_the_list_version(self, k, per_axis):
        m = build_map(0.5, 2, [[-2.0, 1.0] if k == 1 else [-2.0, 0.0, 1.0]])
        assert m.k == k
        for eps in (0.1, 0.05, 0.02, 1e-3):
            grid, want = ref_przytycki_lists(m, eps, per_axis)
            got_grid = BD.critical_ball_grid(m, eps, per_axis)
            assert_bitwise(got_grid, np.array(grid))
            for g in (got_grid, grid):
                rep = BD.przytycki_return(m, eps, g)
                loc = rep.min_ratio_location
                assert (rep.samples, loc["n"], loc) == want

    def test_matches_scalar_first_hit_scan(self, cheb):
        grid = BD.critical_ball_grid(cheb, 1e-2, per_axis=20)
        rep = BD.przytycki_return(cheb, 1e-2, grid, horizon=200)
        ora = oracle_first_return(
            cheb.lam, cheb.degree, cheb.fiber_coeffs[0], cheb.k, 1e-2, grid, 200)
        assert rep.passed and rep.min_ratio_location is not None
        assert rep.min_ratio_location["n"] == ora

    def test_floor_grows_with_depth(self, cheb):
        reps = [
            BD.przytycki_return(cheb, eps, BD.critical_ball_grid(cheb, eps))
            for eps in (1e-2, 1e-3, 1e-4)
        ]
        mins = [r.min_ratio_location["n"] for r in reps]
        assert mins == [6, 12, 19]
        assert mins == sorted(mins)
        for r in reps:
            assert r.fitted_constant > 0
            assert r.samples == 10000

    def test_no_return_reported_as_none(self, cheb):
        # (0, 0) maps onto the repelling fixed point 2 and never comes back
        rep = BD.przytycki_return(cheb, 1e-2, [(0.0, 0.0)], horizon=50)
        assert (rep.samples, rep.violations) == (1, 0)
        assert rep.min_ratio_location is None and not rep.passed
        assert rep.fitted_constant is None

    def test_epsilon_range(self, cheb):
        with pytest.raises(PreconditionViolated):
            BD.przytycki_return(cheb, 0.2, [(0.0, 0.0)])
        with pytest.raises(PreconditionViolated):
            BD.przytycki_return(cheb, 0.0, [(0.0, 0.0)])

    def test_empty_grid(self, cheb):
        with pytest.raises(EmptyGrid):
            BD.przytycki_return(cheb, 1e-2, [(0.5, 3.0)])

    def test_attracting_cycle_rejected(self):
        with pytest.raises(AttractingCyclePresent):
            BD.przytycki_return(basilica_map(), 0.1, [(0.0, 0.0)])

    def test_grid_satisfies_the_smallness_hypotheses(self, cheb):
        eps = 1e-3
        grid = BD.critical_ball_grid(cheb, eps, per_axis=15)
        assert len(grid) == 225
        for z, w in grid:
            assert abs(z) ** cheb.k <= eps * (1 + 1e-12)
            assert abs(w) <= eps * (1 + 1e-12)


class TestAssembly:
    def test_merge_equals_union(self, cheb):
        # splitting the starts adds samples and violations, and the whole
        # batch's fitted constant is the smaller of the halves' constants
        rng = np.random.default_rng(3)
        ws = rng.uniform(-2.0, 2.0, 100)
        whole = BD.audit_onedim(cheb.f0(), ws, n_max=50, lambda0=0.9, delta=0.5)
        left = BD.audit_onedim(cheb.f0(), ws[:50], n_max=50, lambda0=0.9, delta=0.5)
        right = BD.audit_onedim(cheb.f0(), ws[50:], n_max=50, lambda0=0.9, delta=0.5)
        for tag in whole:
            halves = (left[tag], right[tag])
            assert whole[tag].samples == sum(h.samples for h in halves)
            assert whole[tag].violations == sum(h.violations for h in halves)
            if whole[tag].samples:
                assert whole[tag].fitted_constant == min(
                    h.fitted_constant for h in halves if h.samples)
