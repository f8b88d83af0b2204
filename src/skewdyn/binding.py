"""Binding times for orbit pairs, with the ratio and expansion audits.

A pair of starting points is "bound" while their fiber coordinates stay
within a slowly tightening relative distance of each other; the binding
time is the first step where the separation crosses the threshold
mu * min(|xi_n(x)|, |xi_n(y)|) / (n+1)^2.  While bound, the vertical
derivatives along the two orbits are comparable, and the derivative along
one orbit is bounded below by the separation divided by an accumulated
coefficient-difference sum W.  Both facts are audited numerically here.

Every pair runs through one batch kernel, `_bind`, which steps all pairs
of a batch together; the pair audits (and the departure audit in `bounds`)
bind BLOCK_PAIRS pairs per batch, so the histories they hold at once are
bounded by the block, not by the number of pairs.  Each audit is one
vectorized reduction over a batch (`_Reduction`): per-pair columns of
least margins and failure flags.  `audit_pair_blocks` yields those columns
block by block (`PairBlock`), which is all the CSV and the summary need;
BindingAudit records are built from the same columns only for the record
API (`audit_lemma_*`, `audit_pair_batch`).

The kernel reproduces CPython's scalar complex arithmetic bit for bit:
numpy's complex products, np.abs, np.angle and np.exp round differently
from CPython's complex type and math module, so the kernel keeps real and
imaginary parts in separate float64 arrays, multiplies them op for op as
CPython's c_prod and c_powu do, takes moduli with np.hypot (which abs()
calls) and sends log, atan2 and exp through the math module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import mc
from .core import SkewProductMap, _monic
from .errors import (
    BaseOutsideDomain,
    HorizonNonPositive,
    PreconditionViolated,
)

OVERFLOW_GUARD = 1e100
DEFAULT_HORIZON = 10_000
BLOCK_PAIRS = 2**11  # pairs bound at once by the batch audits


def _overflow_guard(degree: int) -> float:
    """The |w| past which a pair stops as overflow: OVERFLOW_GUARD, lowered
    for degree >= 4 so that the next step's w**d stays below 1e300."""
    return min(OVERFLOW_GUARD, 10.0 ** (300.0 / degree))


def mu_constants(degree: int) -> tuple[float, float]:
    """Closeness constants (mu0, mu1) used for binding thresholds.

    mu0 = 0.07/d keeps the summed threshold series 2*mu0*pi^2/6 below
    1/(4d); mu1 = mu0/4 leaves room for the two-chain amplification
    2*mu1*(1+mu1) <= mu0.  check_mu_constants verifies both.
    """
    if degree < 2:
        raise ValueError("degree must be at least 2")
    mu0 = 0.07 / degree
    return mu0, mu0 / 4.0


def check_mu_constants(degree: int) -> dict:
    """Verify the two defining conditions at the worst case (equality)."""
    mu0, mu1 = mu_constants(degree)
    series_sum = 2.0 * mu0 * math.pi**2 / 6.0
    series_cap = 1.0 / (4.0 * degree)
    chain_lhs = 2.0 * mu1 * (1.0 + mu1)
    return {
        "mu0": mu0,
        "mu1": mu1,
        "series_sum": series_sum,
        "series_cap": series_cap,
        "series_ok": series_sum < series_cap,
        "chain_lhs": chain_lhs,
        "chain_cap": mu0,
        "chain_ok": chain_lhs <= mu0,
    }


@dataclass
class BindingRecord:
    """One audited pair: orbit data through min(binding_time, horizon).

    Arrays are indexed by step n = 0..n_last.  w_history[n-1] holds the
    accumulated sum W(x, y, n) for n >= 1; it is truncated early if the
    vertical derivative along x vanishes (critical_hit_at records where).
    """

    x: tuple[complex, complex]
    y: tuple[complex, complex]
    mu: float
    horizon: int
    binding_time: int | None
    censored: bool
    shadowing: bool = False
    overflow: bool = False
    critical_hit_at: int | None = None
    xi_x: np.ndarray = field(default_factory=lambda: np.zeros(0, complex))
    xi_y: np.ndarray = field(default_factory=lambda: np.zeros(0, complex))
    separations: np.ndarray = field(default_factory=lambda: np.zeros(0))
    thresholds: np.ndarray = field(default_factory=lambda: np.zeros(0))
    log_vder_x: np.ndarray = field(default_factory=lambda: np.zeros(0))
    log_vder_y: np.ndarray = field(default_factory=lambda: np.zeros(0))
    phase_x: np.ndarray = field(default_factory=lambda: np.zeros(0))
    phase_y: np.ndarray = field(default_factory=lambda: np.zeros(0))
    w_history: np.ndarray | None = None

    @property
    def n_last(self) -> int:
        return len(self.separations) - 1

    @property
    def w_final(self) -> float:
        if self.w_history is None or len(self.w_history) == 0:
            return math.nan
        return float(self.w_history[-1])


@dataclass
class BindingAudit:
    kind: str  # "derivative_ratio" or "derivative_expansion"
    n_checked: int
    max_deviation: float
    min_margin: float
    margins: np.ndarray
    passed: bool
    skipped: bool = False


# ---------------------------------------------------------------------------
# CPython's complex arithmetic on split float64 arrays


def _mul(ar, ai, br, bi):
    """CPython's c_prod."""
    return ar * br - ai * bi, ar * bi + ai * br


def _pow(re, im, n: int):
    """CPython's complex ** n for 0 <= n <= 100: c_powu, squaring from
    1 + 0j, and its OverflowError when a part of the result is infinite."""
    rr, ri = 1.0, 0.0
    mask = 1
    while n >= mask:
        if n & mask:
            rr, ri = _mul(rr, ri, re, im)
        mask <<= 1
        if n >= mask:
            re, im = _mul(re, im, re, im)
    if np.isinf(rr).any() or np.isinf(ri).any():
        raise OverflowError("complex exponentiation")
    return rr, ri


def _poly(coeffs: tuple[complex, ...], zr, zi):
    """core._poly_eval's Horner scheme: from z + c[-2] for a monic tuple
    (core._monic), else from z * 0 + c[-1]."""
    if _monic(coeffs):
        ar, ai = zr + coeffs[-2].real, zi + coeffs[-2].imag
        rest = coeffs[:-2]
    else:
        ar, ai = _mul(zr, zi, 0.0, 0.0)
        ar, ai = ar + coeffs[-1].real, ai + coeffs[-1].imag
        rest = coeffs[:-1]
    for c in reversed(rest):
        ar, ai = _mul(ar, ai, zr, zi)
        ar, ai = ar + c.real, ai + c.imag
    return ar, ai


def _apply(fn, *arrays) -> np.ndarray:
    """A math-module function on each element, with CPython's rounding
    and its exceptions."""
    return np.array(list(map(fn, *(a.tolist() for a in arrays))), dtype=float)


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _exp(x: float) -> float:
    """math.exp, with inf in place of its OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _pymin(a, b):
    """Python's min(a, b) elementwise: b only where b < a (NaN-aware)."""
    return np.where(b < a, b, a)


class _Lanes:
    """Orbits stepped together: z, w in split parts, |w|, and the
    accumulated log-modulus and phase of the vertical derivative.  The
    kernel keeps the x orbits of its live pairs first, then the y orbits,
    so both sides of a pair advance in the same array operations."""

    _ARRAYS = ("zr", "zi", "wr", "wi", "absw", "lv", "ph")

    def __init__(self, z: np.ndarray, w: np.ndarray):
        self.zr, self.zi = z.real.copy(), z.imag.copy()
        self.wr, self.wi = w.real.copy(), w.imag.copy()
        self.absw = np.hypot(self.wr, self.wi)
        self.lv = np.zeros(len(w))
        self.ph = np.zeros(len(w))

    def keep(self, mask: np.ndarray) -> None:
        for name in self._ARRAYS:
            setattr(self, name, getattr(self, name)[mask])

    @np.errstate(all="ignore")  # inf and NaN propagate as in scalar code
    def step(self, map: SkewProductMap):
        """Advance one step as SkewProductMap.dfdw, fiber_value and z * lam
        do on scalars.  Returns |dF/dw| and, for unicritical maps, c0 at
        the point the step started from."""
        d, zr, zi, wr, wi = map.degree, self.zr, self.zi, self.wr, self.wi
        # an int operand enters CPython's complex arithmetic as int + 0j; the
        # products with 0.0 and the + 0.0 keep its signed zeros
        fr, fi = _mul(float(d), 0.0, *_pow(wr, wi, d - 1))
        if map.mode == "unicritical":
            c0 = _poly(map.fiber_coeffs[0], zr, zi)
            pr, pi = _pow(wr, wi, d)
            self.wr, self.wi = pr + c0[0], pi + c0[1]
        else:
            c0 = None
            cs = [_poly(c, zr, zi) for c in map.fiber_coeffs]
            for i in range(1, d):
                tr, ti = _mul(*_mul(float(i), 0.0, *cs[i]), *_pow(wr, wi, i - 1))
                fr, fi = fr + tr, fi + ti
            ar, ai = _mul(wr, wi, 0.0, 0.0)
            ar, ai = ar + 1.0, ai + 0.0
            for cr, ci in reversed(cs):
                ar, ai = _mul(ar, ai, wr, wi)
                ar, ai = ar + cr, ai + ci
            self.wr, self.wi = ar, ai
        mag = np.hypot(fr, fi)
        pos = mag > 0
        dlog = np.full(len(mag), -np.inf)
        dphase = np.zeros(len(mag))
        dlog[pos] = _apply(math.log, mag[pos])
        dphase[pos] = _apply(math.atan2, fi[pos], fr[pos])
        self.lv = self.lv + dlog
        self.ph = self.ph + dphase
        self.zr, self.zi = _mul(zr, zi, map.lam.real, map.lam.imag)
        self.absw = np.hypot(self.wr, self.wi)
        return mag, c0


# ---------------------------------------------------------------------------
# the batch kernel

_FIELDS = ("xi_x", "xi_y", "separations", "thresholds", "log_vder_x",
           "log_vder_y", "phase_x", "phase_y", "w_history")


@dataclass
class _Histories:
    """A bound batch, pair-major: step n of pair j sits at start[j] + n of
    every array in data.  data["w_history"][start[j] + n] is W(n) for
    1 <= n <= w_len[j]; w_len is -1 where a map keeps no W."""

    start: np.ndarray
    binding: np.ndarray  # binding time, -1 if censored
    shadowing: np.ndarray
    overflow: np.ndarray
    critical_hit_at: np.ndarray  # -1 if none
    w_len: np.ndarray
    data: dict

    @property
    def last(self) -> np.ndarray:
        return np.diff(self.start) - 1

    def record(self, j: int, x, y, mu: float, horizon: int) -> BindingRecord:
        lo, hi = int(self.start[j]), int(self.start[j + 1])
        b, crit, w_len = (int(self.binding[j]), int(self.critical_hit_at[j]),
                          int(self.w_len[j]))
        arrays = {f: self.data[f][lo:hi].copy() for f in _FIELDS[:-1]}
        if w_len < 0:
            w_history = None
        elif w_len == 0:
            w_history = np.zeros(0)
        else:
            w_history = self.data["w_history"][lo + 1:lo + 1 + w_len].copy()
        return BindingRecord(
            x=x, y=y, mu=mu, horizon=horizon,
            binding_time=None if b < 0 else b, censored=b < 0,
            shadowing=bool(self.shadowing[j]), overflow=bool(self.overflow[j]),
            critical_hit_at=None if crit < 0 else crit,
            w_history=w_history,
            **arrays,
        )

    @classmethod
    def of_record(cls, rec: BindingRecord) -> _Histories:
        w = np.full(rec.n_last + 1, np.nan)
        w_len = -1 if rec.w_history is None else len(rec.w_history)
        if w_len > 0:
            w[1:1 + w_len] = rec.w_history
        data = {f: getattr(rec, f) for f in _FIELDS[:-1]}
        data["w_history"] = w
        return cls(
            start=np.array([0, rec.n_last + 1]),
            binding=np.array([-1 if rec.binding_time is None else rec.binding_time]),
            shadowing=np.array([rec.shadowing]),
            overflow=np.array([rec.overflow]),
            critical_hit_at=np.array([-1 if rec.critical_hit_at is None
                                      else rec.critical_hit_at]),
            w_len=np.array([w_len]), data=data,
        )


def _ranges(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges lo[j], ..., lo[j] + counts[j] - 1, concatenated."""
    first = np.cumsum(counts) - counts
    return np.repeat(lo - first, counts) + np.arange(int(counts.sum()))


def _check_pairs(map, zx, zy, mu: float, horizon: int) -> None:
    if horizon <= 0:
        raise HorizonNonPositive(f"horizon must be positive, got {horizon}")
    mu0, _ = mu_constants(map.degree)
    if not 0.0 < mu <= mu0 + 1e-15:
        raise PreconditionViolated(f"mu must lie in (0, {mu0}], got {mu}")
    out_x = ~(np.hypot(zx.real, zx.imag) < map.r0)  # NaN is outside too
    out_y = np.broadcast_to(~(np.hypot(zy.real, zy.imag) < map.r0), out_x.shape)
    bad = np.flatnonzero(out_x | out_y)
    if len(bad):
        j = bad[0]
        z = complex(zx[j] if out_x[j] else zy[j if len(zy) > 1 else 0])
        raise BaseOutsideDomain(f"|z|={abs(z)} outside base disk of radius {map.r0}")


@np.errstate(all="ignore")
def _bind(map: SkewProductMap, zx, wx, zy, wy, mu: float, horizon: int,
          fields: tuple[str, ...] = _FIELDS) -> _Histories:
    """Bind every pair ((zx, wx), (zy, wy)) of a batch in one pass.

    The pairs step together in compacted live arrays: a pair leaves when
    it binds, at the horizon, or once max(|wx|, |wy|) passes the overflow
    guard, and identical points leave at once as shadowing.  On unicritical
    maps a pair also leaves as overflow when |Df^n(x)| falls below e^-709,
    where the W term 1/|Df^n(x)| leaves double range; its record ends at
    step n - 1, the last one with a finite W.  zy and wy may have length 1:
    one y orbit shared by every pair.  Histories are kept for the names in
    fields only.
    """
    m = len(wx)
    if m:
        _check_pairs(map, zx, zy, mu, horizon)
    shared = len(wy) != m
    uni = map.mode == "unicritical"
    if not uni:
        fields = tuple(f for f in fields if f != "w_history")
    last = np.zeros(m, dtype=int)
    binding = np.full(m, -1)
    crit_at = np.full(m, -1)
    overflow = np.zeros(m, dtype=bool)
    shadowing = (zx == zy) & (wx == wy)
    guard = _overflow_guard(map.degree)

    lanes = _Lanes(np.concatenate([zx, zy]), np.concatenate([wx, wy]))
    idx = np.arange(m)
    crit = np.zeros(m, dtype=bool)
    wsum = 2.0 * np.hypot(wx.real - wy.real, wx.imag - wy.imag)
    steps: list[np.ndarray] = []
    hist: dict[str, list] = {f: [] for f in fields}
    n = 0
    while len(idx):
        # lanes[:k] are the x orbits of the live pairs, lanes[k:] their y
        # orbits (one shared lane when shared)
        k = len(idx)
        wr, wi, absw = lanes.wr, lanes.wi, lanes.absw
        sep = np.hypot(wr[:k] - wr[k:], wi[:k] - wi[k:])
        thr = mu * _pymin(absw[:k], absw[k:]) / (n + 1) ** 2
        steps.append(idx)
        now = {"separations": sep, "thresholds": thr, "w_history": wsum,
               "log_vder_x": lanes.lv[:k], "log_vder_y": lanes.lv[k:],
               "phase_x": lanes.ph[:k], "phase_y": lanes.ph[k:]}
        for f in fields:
            hist[f].append(_complex(wr[:k], wi[:k]) if f == "xi_x" else
                           _complex(wr[k:], wi[k:]) if f == "xi_y" else now[f])
        bound = sep >= thr
        stop = bound | (n >= horizon)
        if n == 0:
            bound &= ~shadowing
            stop |= shadowing
        # Python's max(|wx|, |wy|), whose NaN handling decides the guard
        over = ~stop & (np.where(absw[k:] > absw[:k], absw[k:], absw[:k])
                        > guard)
        stop |= over
        if stop.any():
            last[idx[stop]] = n
            binding[idx[bound]] = n
            overflow[idx[over]] = True
            keep = ~stop
            idx, crit, wsum = idx[keep], crit[keep], wsum[keep]
            lanes.keep(np.concatenate([keep, [True] if shared else keep]))
            k = len(idx)
            if not k:
                break
        mag, c0 = lanes.step(map)
        hit = (mag[:k] == 0) & ~crit
        crit_at[idx[hit]] = n
        crit = crit | hit
        n += 1
        if uni:
            dc = np.hypot(c0[0][:k] - c0[0][k:], c0[1][:k] - c0[1][k:])
            scale = np.zeros(k)
            scale[~crit] = _apply(_exp, -lanes.lv[:k][~crit])
            lost = np.isinf(scale) & np.isfinite(lanes.lv[:k])
            if lost.any():
                last[idx[lost]] = n - 1
                overflow[idx[lost]] = True
                keep = ~lost
                idx, crit, wsum, dc, scale = (
                    idx[keep], crit[keep], wsum[keep], dc[keep], scale[keep])
                lanes.keep(np.concatenate([keep, [True] if shared else keep]))
            wsum = wsum + 2.0 * dc * scale

    start = np.zeros(m + 1, dtype=int)
    np.cumsum(last + 1, out=start[1:])
    data = {}
    if steps:
        pos = np.concatenate([start[i] + s for s, i in enumerate(steps)])
        for f, vals in hist.items():
            flat = np.empty(start[-1], dtype=vals[0].dtype)
            flat[pos] = np.concatenate(
                [v if len(v) == len(i) else np.repeat(v, len(i))  # shared y
                 for v, i in zip(vals, steps)])
            data[f] = flat
    if uni:
        w_len = np.where(shadowing, 0, np.where(crit_at >= 0, crit_at, last))
    else:
        w_len = np.where(shadowing, 0, -1)
    return _Histories(start=start, binding=binding, shadowing=shadowing,
                      overflow=overflow, critical_hit_at=crit_at, w_len=w_len,
                      data=data)


def binding_time(
    map: SkewProductMap,
    x: tuple[complex, complex],
    y: tuple[complex, complex],
    mu: float,
    horizon: int = DEFAULT_HORIZON,
) -> BindingRecord:
    """First step where the pair's separation crosses the threshold.

    Equality counts as crossed.  If no step up to `horizon` crosses, the
    record is horizon-censored.  Identical starting points short-circuit
    to a censored "shadowing" record instead of looping.  The pair runs
    through the batch kernel as a batch of one.
    """
    x = (complex(x[0]), complex(x[1]))
    y = (complex(y[0]), complex(y[1]))
    pts = np.array([x + y], dtype=complex)
    h = _bind(map, pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3], mu, horizon)
    return h.record(0, x, y, mu, horizon)


# ---------------------------------------------------------------------------
# the two audits, over every pair of a batch at once


@dataclass
class _Reduction:
    """One audit over every pair of a batch, as columns.  Pair j's margins
    are the size[j] values from sum(size[:j]) on, of which checked[j] are
    bound steps (0 where the audit skips the pair); least is the least
    margin (NaN where skipped), deviation the max deviation (where
    checked), and failed marks the checked pairs that fail."""

    kind: str
    skipped_margin: float  # min_margin of a skipped pair's record
    checked: np.ndarray
    size: np.ndarray
    margins: np.ndarray
    least: np.ndarray
    deviation: np.ndarray
    failed: np.ndarray

    def audits(self) -> list[BindingAudit]:
        """One BindingAudit per pair, for the record API."""
        out = []
        first = np.cumsum(self.size) - self.size
        for n, f, c, least, dev, failed in zip(
                self.checked.tolist(), first.tolist(), self.size.tolist(),
                self.least.tolist(), self.deviation.tolist(),
                self.failed.tolist()):
            if n == 0:
                out.append(BindingAudit(
                    kind=self.kind, n_checked=0, max_deviation=0.0,
                    min_margin=self.skipped_margin, margins=np.zeros(0),
                    passed=True, skipped=True))
            else:
                out.append(BindingAudit(
                    kind=self.kind, n_checked=n, max_deviation=dev,
                    min_margin=least, margins=self.margins[f:f + c],
                    passed=not failed))
        return out


def _per_pair(ufunc, values: np.ndarray, size: np.ndarray, fill: float) -> np.ndarray:
    """ufunc reduced over each pair's size values (values holds them pair
    after pair), fill where a pair has none."""
    out = np.full(len(size), fill)
    checked = size > 0
    if checked.any():
        out[checked] = ufunc.reduceat(values, (np.cumsum(size) - size)[checked])
    return out


def _ratio_reduction(h: _Histories) -> _Reduction:
    """|Df^m(x)(v) / Df^m(y)(v) - 1| < 1/2 for m = 1..n_last of each pair."""
    counts = np.where(h.shadowing, 0, h.last)
    pos = _ranges(h.start[:-1] + 1, counts)
    d = h.data
    log_ratio = d["log_vder_x"][pos] - d["log_vder_y"][pos]
    phase = d["phase_x"][pos] - d["phase_y"][pos]
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = np.exp(log_ratio) * np.exp(1j * phase)
        dev = np.abs(ratio - 1.0)
    dev = np.where(np.isfinite(dev), dev, np.inf)
    max_dev = _per_pair(np.maximum, dev, counts, 0.0)
    margins = 0.5 - dev
    return _Reduction(
        kind="derivative_ratio", skipped_margin=0.5, checked=counts,
        size=counts, margins=margins,
        least=_per_pair(np.minimum, margins, counts, np.nan),
        deviation=max_dev, failed=(counts > 0) & ~(max_dev < 0.5))


def _expansion_reduction(h: _Histories, mu: float, rel_slack: float = 1e-9) -> _Reduction:
    """|Df^n(x)(v)| >= sep_n / W(n) at each bound step n, and at a finite
    binding time b also |Df^b(x)(v)| >= mu |xi_b(x)| / (2 (b+1)^2 W(b));
    margins are relative slacks (lhs/rhs - 1)."""
    n_lim = np.where(h.shadowing, 0, np.maximum(np.minimum(h.last, h.w_len), 0))
    pos = _ranges(h.start[:-1] + 1, n_lim)
    d = h.data
    w = d.get("w_history", np.zeros(0))  # absent for general maps: all skipped
    seps = d["separations"][pos]
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs_log = np.log(seps) - np.log(w[pos])
        main = np.expm1(d["log_vder_x"][pos] - rhs_log)
    # vacuous steps (zero separation): infinite slack
    main = np.where(seps > 0, main, np.inf)

    b = h.binding
    extra_at = np.flatnonzero((b >= 1) & (b <= n_lim))
    at = h.start[extra_at] + b[extra_at]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xi = d["xi_x"][at]
        rhs2 = mu * np.hypot(xi.real, xi.imag) / (2.0 * (b[extra_at] + 1) ** 2 * w[at])
    kept = rhs2 > 0
    extra_at, at = extra_at[kept], at[kept]
    extra = _apply(math.expm1, d["log_vder_x"][at] - _apply(math.log, rhs2[kept]))

    counts = n_lim.copy()
    counts[extra_at] += 1
    first = np.cumsum(counts) - counts
    margins = np.empty(int(counts.sum()))
    margins[_ranges(first, n_lim)] = main
    margins[first[extra_at] + n_lim[extra_at]] = extra
    least = _per_pair(np.minimum, margins, counts, np.nan)
    return _Reduction(
        kind="derivative_expansion", skipped_margin=math.inf, checked=n_lim,
        size=counts, margins=margins, least=least,
        deviation=-_pymin(least, 0.0),  # Python's -min(least, 0.0)
        failed=(n_lim > 0) & ~(least >= -rel_slack))


def audit_lemma_ratio(record: BindingRecord) -> BindingAudit:
    """Check |Df^m(x)(v) / Df^m(y)(v) - 1| < 1/2 for every m while bound."""
    return _ratio_reduction(_Histories.of_record(record)).audits()[0]


def audit_lemma_expansion(record: BindingRecord, rel_slack: float = 1e-9) -> BindingAudit:
    """Check the derivative lower bounds against separation / W.

    General form at each bound step n: |Df^n(x)(v)| >= |xi_n(x)-xi_n(y)| / W(n).
    At a finite binding time b, additionally:
    |Df^b(x)(v)| >= mu |xi_b(x)| / (2 (b+1)^2 W(b)).
    Margins are relative slacks (lhs/rhs - 1).
    """
    return _expansion_reduction(_Histories.of_record(record), record.mu,
                                rel_slack).audits()[0]


def _draw_bound_pairs(map: SkewProductMap, count: int, seed: int,
                      mu: float | None = None,
                      w_radius: float | None = None) -> np.ndarray:
    """sample_bound_pairs' pairs as a (count, 4) array of zx, wx, zy, wy."""
    if mu is None:
        mu = mu_constants(map.degree)[0]
    if w_radius is None:
        w_radius = 0.45 * map.escape_radius

    def draw(gen: np.random.Generator, m: int) -> np.ndarray:
        z = mc.uniform_disk(gen, m, 0.9 * map.r0)
        w = mc.uniform_annulus(gen, m, 0.05 * w_radius, w_radius)
        scale = 10.0 ** (-3.0 * gen.random(m))
        dw = 0.9 * mu * np.abs(w) * scale * np.exp(2j * np.pi * gen.random(m))
        dz = 0.05 * map.r0 * 10.0 ** (-3.0 * gen.random(m)) * np.exp(2j * np.pi * gen.random(m))
        return np.column_stack([z, w, z + dz, w + dw])

    return mc.draw_blocks(seed, "binding_pairs", count, draw)


def sample_bound_pairs(
    map: SkewProductMap,
    count: int,
    seed: int,
    mu: float | None = None,
    w_radius: float | None = None,
) -> list[tuple[tuple[complex, complex], tuple[complex, complex]]]:
    """Random nearby pairs whose initial separation sits below the threshold.

    Separations are drawn log-uniformly over three decades below mu*|w0| so
    the batch spans a range of binding times.
    """
    cols = _draw_bound_pairs(map, count, seed, mu, w_radius)
    return [((row[0], row[1]), (row[2], row[3])) for row in cols]


class PairBlock(NamedTuple):
    """One block of audited pairs as columns: row j is pair first_id + j.
    binding_time is -1 where censored, W_final NaN where the pair keeps no
    W, and a least margin NaN where its audit skips the pair."""

    first_id: int
    binding_time: np.ndarray
    censored: np.ndarray
    w_final: np.ndarray
    least_lemma23: np.ndarray  # derivative ratio
    least_lemma24: np.ndarray  # derivative expansion
    failed_lemma23: np.ndarray
    failed_lemma24: np.ndarray


@dataclass
class PairAudits:
    """Audited pairs, bound BLOCK_PAIRS at a time.  Iterating yields one
    PairBlock per block, in pair_id order; rows() gives every pair's row
    with its audit records.  mu and horizon are the values used."""

    map: SkewProductMap
    points: np.ndarray  # (pairs, 4): zx, wx, zy, wy
    mu: float
    horizon: int

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[PairBlock]:
        for lo in range(0, len(self.points), BLOCK_PAIRS):
            yield self._audited(lo)[0]

    def rows(self) -> list[dict]:
        """Every pair's row, with its two BindingAudit records, in pair_id
        order."""
        rows = []
        for lo in range(0, len(self.points), BLOCK_PAIRS):
            block, ratio, expansion = self._audited(lo)
            for j, (b, w, m23, m24, ra, ea) in enumerate(zip(
                    block.binding_time.tolist(), block.w_final.tolist(),
                    block.least_lemma23.tolist(), block.least_lemma24.tolist(),
                    ratio.audits(), expansion.audits())):
                rows.append({
                    "pair_id": lo + j,
                    "mu": self.mu,
                    "binding_time": None if b < 0 else b,
                    "censored": b < 0,
                    "W_final": w,
                    "min_margin_lemma23": m23,
                    "min_margin_lemma24": m24,
                    "ratio_audit": ra,
                    "expansion_audit": ea,
                })
        return rows

    def _audited(self, lo: int) -> tuple[PairBlock, _Reduction, _Reduction]:
        """Bind the block of pairs lo onward and reduce both audits."""
        pts = self.points[lo:lo + BLOCK_PAIRS]
        h = _bind(self.map, pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3],
                  self.mu, self.horizon)
        ratio, expansion = _ratio_reduction(h), _expansion_reduction(h, self.mu)
        w_final = np.full(len(pts), np.nan)
        has_w = h.w_len > 0
        if has_w.any():
            w_final[has_w] = h.data["w_history"][h.start[:-1][has_w] + h.w_len[has_w]]
        block = PairBlock(
            first_id=lo, binding_time=h.binding, censored=h.binding < 0,
            w_final=w_final, least_lemma23=ratio.least,
            least_lemma24=expansion.least, failed_lemma23=ratio.failed,
            failed_lemma24=expansion.failed)
        return block, ratio, expansion


def audit_pair_blocks(
    map: SkewProductMap,
    pairs,
    mu: float | None = None,
    horizon: int = DEFAULT_HORIZON,
) -> PairAudits:
    """Bind and audit pairs, one block of BLOCK_PAIRS at a time.

    pairs is a sequence of ((zx, wx), (zy, wy)) or a (count, 4) array; mu
    defaults to mu0.  Every pair's record depends on its own lanes only,
    so the columns and rows are bitwise those of one batch, while memory
    stays bounded by the block.  The inputs are checked here, before any
    block binds.
    """
    if mu is None:
        mu = mu_constants(map.degree)[0]
    pts = np.asarray(pairs, dtype=complex).reshape(-1, 4)
    _check_pairs(map, pts[:, 0], pts[:, 2], mu, horizon)
    return PairAudits(map, pts, mu, horizon)


def audit_pair_batch(
    map: SkewProductMap,
    pairs,
    mu: float | None = None,
    horizon: int = DEFAULT_HORIZON,
) -> list[dict]:
    """audit_pair_blocks' rows as one list, in input order."""
    return audit_pair_blocks(map, pairs, mu, horizon).rows()


CSV_COLUMNS = [
    "pair_id", "mu", "binding_time", "censored",
    "W_final", "min_margin_lemma23", "min_margin_lemma24",
]


def _csv_rows(ids, mus, binding_times, w_final, least23, least24) -> str:
    """CSV rows from column lists; a binding time below 0 is censored."""
    row = "%d,%.17g,%s,%d,%.17g,%.17g,%.17g\n"
    return "".join([row % (i, mu, "" if b < 0 else b, b < 0, w, m23, m24)
                    for i, mu, b, w, m23, m24 in zip(
                        ids, mus, binding_times, w_final, least23, least24)])


def binding_csv_chunks(blocks: Iterable[PairBlock], mu: float) -> Iterator[str]:
    """The header, then one chunk of CSV text per block."""
    yield ",".join(CSV_COLUMNS) + "\n"
    for b in blocks:
        m = len(b.binding_time)
        yield _csv_rows(
            range(b.first_id, b.first_id + m), [mu] * m,
            b.binding_time.tolist(), b.w_final.tolist(),
            b.least_lemma23.tolist(), b.least_lemma24.tolist())


def binding_rows_to_csv(rows: list[dict]) -> str:
    """audit_pair_batch's rows as the CSV binding_csv_chunks writes."""
    return ",".join(CSV_COLUMNS) + "\n" + _csv_rows(
        [r["pair_id"] for r in rows], [r["mu"] for r in rows],
        [-1 if r["censored"] else r["binding_time"] for r in rows],
        *([r[col] for r in rows]
          for col in ("W_final", "min_margin_lemma23", "min_margin_lemma24")))
