"""The batched binding kernel against the scalar loop it replaced.

`reference_binding_time`, the two reference audits and
`reference_departure` are copies of the per-pair scalar code that ran
before the batch kernel.  The kernel must reproduce them bit for bit:
every BindingRecord field, every audit field and the departure audit's
BoundAudit.  Arrays are compared by their bytes, so signed zeros and NaN
payloads count.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skewdyn import binding as B
from skewdyn import bounds as BD
from skewdyn import mc
from skewdyn.core import build_map
from skewdyn.errors import BaseOutsideDomain, HorizonNonPositive, PreconditionViolated
from skewdyn.gallery import basilica_map, chebyshev_map

CHEBYSHEV = chebyshev_map()
BASILICA = basilica_map()
COMPLEX_LAMBDA = build_map(0.6 - 0.1j, 2, [[-0.12 + 0.75j, 1.0, 0.3j]])
GENERAL3 = build_map(0.5 + 0.2j, 3, [[0.1, 1.0], [0.2j, 0.3], [-0.4]], mode="general")
MAPS = {"chebyshev": CHEBYSHEV, "basilica": BASILICA,
        "complex_lambda": COMPLEX_LAMBDA, "general3": GENERAL3}


# ---------------------------------------------------------------------------
# the scalar code the kernel replaced


def reference_binding_time(map, x, y, mu, horizon=B.DEFAULT_HORIZON):
    zx, wx = complex(x[0]), complex(x[1])
    zy, wy = complex(y[0]), complex(y[1])
    if zx == zy and wx == wy:
        rec = B.BindingRecord(
            x=(zx, wx), y=(zy, wy), mu=mu, horizon=horizon,
            binding_time=None, censored=True, shadowing=True,
        )
        rec.xi_x = np.array([wx]); rec.xi_y = np.array([wy])
        rec.separations = np.array([0.0])
        rec.thresholds = np.array([mu * abs(wx)])
        rec.log_vder_x = np.array([0.0]); rec.log_vder_y = np.array([0.0])
        rec.phase_x = np.array([0.0]); rec.phase_y = np.array([0.0])
        rec.w_history = np.zeros(0)
        return rec

    unicritical = map.mode == "unicritical"
    xs = [wx]; ys = [wy]
    seps = [abs(wx - wy)]
    thrs = [mu * min(abs(wx), abs(wy))]
    lvx = [0.0]; lvy = [0.0]; phx = [0.0]; phy = [0.0]
    w_hist = []
    w_sum = 2.0 * abs(wx - wy)
    crit_at = None
    b = None
    overflow = False

    n = 0
    while True:
        if seps[-1] >= thrs[-1]:
            b = n
            break
        if n >= horizon:
            break
        if max(abs(wx), abs(wy)) > B.OVERFLOW_GUARD:
            overflow = True
            break
        fx = map.dfdw(zx, wx)
        fy = map.dfdw(zy, wy)
        mag_x, mag_y = abs(fx), abs(fy)
        lvx.append(lvx[-1] + (math.log(mag_x) if mag_x > 0 else -math.inf))
        lvy.append(lvy[-1] + (math.log(mag_y) if mag_y > 0 else -math.inf))
        phx.append(phx[-1] + (cmath.phase(fx) if mag_x > 0 else 0.0))
        phy.append(phy[-1] + (cmath.phase(fy) if mag_y > 0 else 0.0))
        if mag_x == 0 and crit_at is None:
            crit_at = n
        wx = map.fiber_value(zx, wx)
        wy = map.fiber_value(zy, wy)
        n += 1
        if unicritical and crit_at is None:
            dc = abs(map.c0_at(zx) - map.c0_at(zy))
            w_sum += 2.0 * dc * math.exp(-lvx[-1])
            w_hist.append(w_sum)
        zx *= map.lam
        zy *= map.lam
        xs.append(wx); ys.append(wy)
        seps.append(abs(wx - wy))
        thrs.append(mu * min(abs(wx), abs(wy)) / (n + 1) ** 2)

    rec = B.BindingRecord(
        x=(complex(x[0]), complex(x[1])), y=(complex(y[0]), complex(y[1])),
        mu=mu, horizon=horizon,
        binding_time=b, censored=b is None,
        overflow=overflow, critical_hit_at=crit_at,
    )
    rec.xi_x = np.array(xs); rec.xi_y = np.array(ys)
    rec.separations = np.array(seps); rec.thresholds = np.array(thrs)
    rec.log_vder_x = np.array(lvx); rec.log_vder_y = np.array(lvy)
    rec.phase_x = np.array(phx); rec.phase_y = np.array(phy)
    rec.w_history = np.array(w_hist) if unicritical else None
    return rec


def reference_audit_ratio(record):
    skipped = B.BindingAudit(
        kind="derivative_ratio", n_checked=0, max_deviation=0.0,
        min_margin=0.5, margins=np.zeros(0), passed=True, skipped=True)
    if record.shadowing:
        return skipped
    n_limit = record.n_last if record.binding_time is None else record.binding_time
    if n_limit < 1:
        return skipped
    m = np.arange(1, n_limit + 1)
    log_ratio = record.log_vder_x[m] - record.log_vder_y[m]
    phase = record.phase_x[m] - record.phase_y[m]
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = np.exp(log_ratio) * np.exp(1j * phase)
        dev = np.abs(ratio - 1.0)
    ok = np.isfinite(dev)
    dev = np.where(ok, dev, np.inf)
    margins = 0.5 - dev
    max_dev = float(dev.max()) if len(dev) else 0.0
    return B.BindingAudit(
        kind="derivative_ratio", n_checked=int(len(m)), max_deviation=max_dev,
        min_margin=float(margins.min()) if len(margins) else 0.5,
        margins=margins, passed=bool(max_dev < 0.5))


def reference_audit_expansion(record, rel_slack=1e-9):
    skipped = B.BindingAudit(
        kind="derivative_expansion", n_checked=0, max_deviation=0.0,
        min_margin=math.inf, margins=np.zeros(0), passed=True, skipped=True)
    if record.shadowing or record.w_history is None:
        return skipped
    n_limit = record.n_last if record.binding_time is None else record.binding_time
    n_limit = min(n_limit, len(record.w_history))
    if n_limit < 1:
        return skipped
    ns = np.arange(1, n_limit + 1)
    w_vals = record.w_history[ns - 1]
    seps = record.separations[ns]
    lhs_log = record.log_vder_x[ns]
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs_log = np.log(seps) - np.log(w_vals)
        margins = np.expm1(lhs_log - rhs_log)
    margins = np.where(seps > 0, margins, np.inf)
    extra = []
    b = record.binding_time
    if b is not None and 1 <= b <= n_limit:
        rhs2 = record.mu * abs(record.xi_x[b]) / (2.0 * (b + 1) ** 2 * w_vals[b - 1])
        if rhs2 > 0:
            extra.append(math.expm1(record.log_vder_x[b] - math.log(rhs2)))
    all_margins = np.concatenate([margins, np.array(extra)]) if extra else margins
    min_margin = float(all_margins.min()) if len(all_margins) else math.inf
    return B.BindingAudit(
        kind="derivative_expansion", n_checked=int(n_limit),
        max_deviation=float(-min(min_margin, 0.0)), min_margin=min_margin,
        margins=all_margins, passed=bool(min_margin >= -rel_slack))


def reference_departure(map, starts, lambda0, mu=None, horizon=1000):
    if mu is None:
        mu = B.mu_constants(map.degree)[0]
    c0 = map.c0_origin
    d = map.degree
    log_l0 = math.log(lambda0)
    acc = BD._Acc("lem25", lambda0, 0.05)
    for idx, (z1, w1) in enumerate(starts):
        z1, w1 = complex(z1), complex(w1)
        delta = max(abs(w1 - c0), abs(z1) ** map.k) ** (1.0 / d)
        if delta == 0.0 or delta >= 0.05:
            continue
        rec = reference_binding_time(map, (z1, w1), (0.0, c0), mu, horizon=horizon)
        n_hi = rec.n_last if rec.binding_time is None else rec.binding_time
        found = None
        for n in range(1, min(n_hi, len(rec.log_vder_x) - 1) + 1):
            ratio_log = rec.log_vder_x[n] - n * log_l0 + (d - 1) * math.log(delta)
            if ratio_log >= BD._LOG_FLOOR:
                found = (n, ratio_log)
                break
        if found is None:
            acc.count += 1
            acc.violations += 1
        else:
            acc.add(np.array([idx]), found[0], np.array([found[1]]))
    return acc.to_audit()


# ---------------------------------------------------------------------------
# bitwise comparison


RECORD_FIELDS = ("x", "y", "mu", "horizon", "binding_time", "censored",
                 "shadowing", "overflow", "critical_hit_at", "xi_x", "xi_y",
                 "separations", "thresholds", "log_vder_x", "log_vder_y",
                 "phase_x", "phase_y", "w_history")
AUDIT_FIELDS = ("kind", "n_checked", "max_deviation", "min_margin", "margins",
                "passed", "skipped")


def assert_bitwise(got, want, fields):
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), name
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        elif isinstance(b, float):
            assert type(a) is float and np.float64(a).tobytes() == np.float64(b).tobytes(), name
        elif isinstance(b, tuple):
            assert a == b and all(type(u) is type(v) for u, v in zip(a, b)), name
            assert all(np.complex128(u).tobytes() == np.complex128(v).tobytes()
                       for u, v in zip(a, b)), name
        else:
            assert a == b and type(a) is type(b), name


def assert_same_pair(map, x, y, mu, horizon):
    got = B.binding_time(map, x, y, mu, horizon)
    try:
        want = reference_binding_time(map, x, y, mu, horizon)
    except OverflowError:
        # the reference's W term math.exp(-log|Df^n|) left double range at
        # step n_last + 1; the kernel ends the pair as overflow at n_last,
        # with the record the reference keeps when cut at that horizon
        with pytest.raises(OverflowError, match="math range error"):
            reference_binding_time(map, x, y, mu, got.n_last + 1)
        assert got.overflow and got.censored
        want = reference_binding_time(map, x, y, mu, got.n_last)
        assert not want.overflow
        want.overflow, want.horizon = True, horizon
    assert_bitwise(got, want, RECORD_FIELDS)
    assert_bitwise(B.audit_lemma_ratio(got), reference_audit_ratio(want), AUDIT_FIELDS)
    assert_bitwise(B.audit_lemma_expansion(got), reference_audit_expansion(want),
                   AUDIT_FIELDS)
    return got


def pair_audit(red, j):
    """Pair j's BindingAudit: the batch reduction cut to pair j, read as the
    record API reads a batch of one."""
    first, one = int(red.size[:j].sum()), slice(j, j + 1)
    return dataclasses.replace(
        red, checked=red.checked[one], size=red.size[one],
        margins=red.margins[first:first + red.size[j]], least=red.least[one],
        deviation=red.deviation[one], failed=red.failed[one]).audit()


def assert_row_is_the_record(block, j, map, x, y, mu, horizon):
    """Row j of a PairBlock against the pair's own record and audits, which
    assert_same_pair checks against the scalar loop.  Returns the record."""
    rec = assert_same_pair(map, x, y, mu, horizon)
    assert block.binding_time[j] == (-1 if rec.censored else rec.binding_time)
    assert block.censored[j] == rec.censored
    assert block.w_final[j].tobytes() == np.float64(rec.w_final).tobytes()
    for least, failed, audit in (
            (block.least_lemma23, block.failed_lemma23, B.audit_lemma_ratio(rec)),
            (block.least_lemma24, block.failed_lemma24, B.audit_lemma_expansion(rec))):
        want = math.nan if audit.skipped else audit.min_margin
        assert least[j].tobytes() == np.float64(want).tobytes()
        assert failed[j] == (not audit.skipped and not audit.passed)
    return rec


def _polar(radius):
    return st.builds(lambda r, t: radius * r * cmath.exp(2j * math.pi * t),
                     st.floats(0.0, 1.0), st.floats(0.0, 1.0))


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_record_matches_scalar_loop(data):
    map = MAPS[data.draw(st.sampled_from(sorted(MAPS)))]
    mu = B.mu_constants(map.degree)[0] * data.draw(st.sampled_from([1.0, 0.25]))
    z = data.draw(_polar(0.9 * map.r0))
    w = data.draw(_polar(0.6 * map.escape_radius))
    rel = 10.0 ** data.draw(st.floats(-15.0, 0.0))
    dz = data.draw(st.sampled_from([0.0, 0.05 * rel * map.r0])) * cmath.exp(
        2j * math.pi * data.draw(st.floats(0.0, 1.0)))
    dw = rel * abs(w) * cmath.exp(2j * math.pi * data.draw(st.floats(0.0, 1.0)))
    horizon = data.draw(st.sampled_from([1, 5, 40, 200]))
    assert_same_pair(map, (z, w), (z + dz, w + dw), mu, horizon)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_batch_rows_match_scalar_loop(name):
    # every row of the block's columns, and every pair's audits cut from the
    # batch reductions, against the scalar loop
    map = MAPS[name]
    mu = B.mu_constants(map.degree)[0]
    pairs = B.sample_bound_pairs(map, 300, seed=3, mu=mu, w_radius=0.6 * map.escape_radius)
    (block,) = B.audit_pair_blocks(map, pairs, mu, horizon=300)
    assert block.first_id == 0 and len(block.binding_time) == len(pairs)
    pts = np.asarray(pairs, dtype=complex).reshape(-1, 4)
    h = B._bind(map, pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3], mu, 300)
    ratio, expansion = B._ratio_reduction(h), B._expansion_reduction(h, mu)
    for j, (x, y) in enumerate(pairs):
        rec = assert_row_is_the_record(block, j, map, x, y, mu, 300)
        assert_bitwise(pair_audit(ratio, j), reference_audit_ratio(rec), AUDIT_FIELDS)
        assert_bitwise(pair_audit(expansion, j), reference_audit_expansion(rec),
                       AUDIT_FIELDS)


class TestExplicitCases:
    mu0 = B.mu_constants(2)[0]

    def test_shadowing(self):
        for map in (BASILICA, GENERAL3):
            mu = B.mu_constants(map.degree)[0]
            rec = assert_same_pair(map, (0.01, 0.3), (0.01, 0.3), mu, 50)
            assert rec.shadowing and rec.censored and rec.w_history is not None

    def test_bound_at_zero(self):
        rec = assert_same_pair(BASILICA, (0.0, 0.3), (0.0, 0.9), self.mu0, 50)
        assert rec.binding_time == 0

    def test_threshold_tie(self):
        rec = assert_same_pair(BASILICA, (0.0, 1.0), (0.0, 1.03125), 0.03125, 50)
        assert rec.binding_time == 0 and rec.separations[0] == rec.thresholds[0]

    def test_horizon_censoring(self):
        full = assert_same_pair(BASILICA, (0.001, 0.3), (0.0, 0.3), self.mu0, 300)
        short = assert_same_pair(BASILICA, (0.001, 0.3), (0.0, 0.3), self.mu0,
                                 full.binding_time - 1)
        assert short.censored and not short.overflow
        assert short.n_last == full.binding_time - 1

    def test_overflow(self):
        rec = assert_same_pair(CHEBYSHEV, (0.0, 3.0), (0.0, 3.0 + 1e-12), self.mu0, 100)
        assert rec.overflow and rec.censored and rec.binding_time is None

    def test_critical_hit_unicritical(self):
        # 3 w^2 underflows to zero at w = 1e-170: the derivative vanishes
        # at step 0 while the pair is still bound, and W stops there
        map = build_map(0.5, 3, [[0.3, 1.0]])
        mu = B.mu_constants(3)[0]
        rec = assert_same_pair(map, (0.0, 1e-170), (0.0, 1e-170 * (1 + 1e-12)), mu, 50)
        assert rec.critical_hit_at == 0 and rec.n_last >= 1
        assert len(rec.w_history) == 0

    def test_signed_zeros(self):
        # real orbits started at imaginary part -0.0: the zero's sign must
        # survive into xi, and phases of negative real factors are +-pi
        map = build_map(0.5, 2, [[-0.9, 1.0], [0.3]], mode="general")
        w = complex(-0.5, -0.0)
        rec = assert_same_pair(map, (0j, w), (0j, w - 1e-9), self.mu0, 50)
        assert rec.n_last >= 2
        uni = assert_same_pair(BASILICA, (0j, w), (0j, w - 1e-9), self.mu0, 50)
        assert uni.n_last >= 2

    def test_w_sum_leaves_double_range(self):
        # both orbits fall into the attracting cycle: |Df^762(x)| < e^-709,
        # so W(762) leaves double range and the record ends at step 761
        c0 = COMPLEX_LAMBDA.c0_origin
        rec = assert_same_pair(COMPLEX_LAMBDA, (0.0, c0 + 1e-5), (0.0, c0), self.mu0,
                               B.DEFAULT_HORIZON)
        assert rec.overflow and rec.censored and rec.n_last == 761
        assert len(rec.w_history) == 761 and np.isfinite(rec.w_history).all()

    def test_overflow_guard_scales_with_degree(self):
        assert B._overflow_guard(2) == B._overflow_guard(3) == B.OVERFLOW_GUARD
        # w**4 overflows near |w| = 1e77, below the degree-3 guard of 1e100
        map = build_map(0.5, 4, [[-1.0, 1.0]])
        mu = B.mu_constants(4)[0]
        rec = B.binding_time(map, (0, 1e80), (0, 1e80 * (1 + 1e-14)), mu)
        assert rec.overflow and rec.censored and rec.n_last == 0
        for d, w in ((4, 1e74), (5, 1e59), (7, 1e42)):
            map = build_map(0.5, d, [[-1.0, 1.0]])
            rec = B.binding_time(map, (0, w), (0, w * (1 + 1e-14)), B.mu_constants(d)[0])
            assert rec.overflow and rec.n_last == 1

    def test_critical_hit_general(self):
        # f(w) = w^2 - w + 1/2 sends 1 to its critical point 1/2 exactly
        map = build_map(0.5, 2, [[0.5, 1.0], [-1.0]], mode="general")
        rec = assert_same_pair(map, (0.0, 1.0), (0.0, 1.0 + 1e-9), self.mu0, 50)
        assert rec.critical_hit_at == 1 and rec.w_history is None


# ---------------------------------------------------------------------------
# the split type against the running interpreter: CPython's complex rules
# are what the kernel must follow, so these tests ask CPython itself rather
# than a copy of its rules, and a CPython that changes its mixed real/complex
# arithmetic fails here


_PARTS = [0.0, -0.0, 1.0, -2.5, 0.7, 5e-324, -1e-310, 1e154, -3e200, 1.7e308,
          math.inf, -math.inf, math.nan]
_VALUES = [complex(a, b) for a in _PARTS for b in _PARTS]
_SCALARS = [0, 1, -3, 7, 0.0, -0.0, 0.5, -1e-310, 1e300, math.inf, -math.inf,
            math.nan, 1j, complex(-0.0, 2.0), complex(math.nan, -0.0)]
_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}


def _split(values):
    return B._Split.of(np.array(values, dtype=complex))


def assert_same_bytes(got, want):
    assert isinstance(got, B._Split)
    want = np.array(want, dtype=complex)
    assert got.re.tobytes() == want.real.tobytes()
    assert got.im.tobytes() == want.imag.tobytes()


@pytest.mark.parametrize("op", list(_OPS))
def test_split_binary_ops_follow_cpython(op):
    fn = _OPS[op]
    xs = [a for a in _VALUES for _ in _VALUES]
    ys = [b for _ in _VALUES for b in _VALUES]
    with np.errstate(all="ignore"):
        assert_same_bytes(fn(_split(xs), _split(ys)), [fn(a, b) for a, b in zip(xs, ys)])
        for c in _SCALARS:
            assert_same_bytes(fn(_split(_VALUES), c), [fn(a, c) for a in _VALUES])
            if op != "-":  # the kernel never subtracts a split from a scalar
                assert_same_bytes(fn(c, _split(_VALUES)), [fn(c, a) for a in _VALUES])


def _cpython_pow(a, n):
    try:
        return a**n
    except OverflowError:
        return None


@pytest.mark.parametrize("n", range(6))
def test_split_power_follows_cpython(n):
    want = [_cpython_pow(a, n) for a in _VALUES]
    with np.errstate(all="ignore"):
        for a, w in zip(_VALUES, want):
            if w is None:
                with pytest.raises(OverflowError, match="complex exponentiation"):
                    _split([a]) ** n
            else:
                assert_same_bytes(_split([a]) ** n, [w])
        if any(w is None for w in want):
            with pytest.raises(OverflowError):
                _split(_VALUES) ** n
        ok = [a for a, w in zip(_VALUES, want) if w is not None]
        assert_same_bytes(_split(ok) ** n, [a**n for a in ok])


_MAP_PARTS = [0.0, -0.0, 0.3, -1.1, 2.0, 1e-310, 1e90, 1e150]


@pytest.mark.parametrize("name", list(MAPS))
def test_map_methods_on_the_split_type(name):
    # the kernel runs these methods on _Split arrays: each must equal the
    # scalar call elementwise, and raise where a scalar call raises
    map = MAPS[name]
    pts = [complex(a, b) for a in _MAP_PARTS for b in _MAP_PARTS]
    zs = [z for z in pts for _ in pts]
    ws = [w for _ in pts for w in pts]
    calls = [map.fiber_value, map.dfdw, lambda z, w: map.c0_at(z),
             lambda z, w: z * map.lam]
    with np.errstate(all="ignore"):
        for call in calls:
            want = []
            for z, w in zip(zs, ws):
                try:
                    want.append(call(z, w))
                except OverflowError:
                    want.append(None)
            if any(v is None for v in want):
                with pytest.raises(OverflowError):
                    call(_split(zs), _split(ws))
            ok = [j for j, v in enumerate(want) if v is not None]
            got = call(_split([zs[j] for j in ok]), _split([ws[j] for j in ok]))
            assert_same_bytes(got, [want[j] for j in ok])


def test_w_accumulator_is_the_record_history():
    # W(x, y, n) for n = 1..b is the record's history, one entry per bound
    # step, and the scalar loop reproduces it bit for bit
    rec = assert_same_pair(COMPLEX_LAMBDA, (1e-6 + 2e-6j, 0.3), (0.0, 0.3 + 1e-9j),
                           B.mu_constants(2)[0], 30)
    assert rec.binding_time == len(rec.w_history) == 15
    assert (np.diff(rec.w_history) >= 0).all()


def test_w_accumulator_overflow_is_typed():
    # the pair of test_w_sum_leaves_double_range: W(761) is the record's last
    # history entry, and W(762) would leave double range, so the record
    # ends as overflow
    c0 = COMPLEX_LAMBDA.c0_origin
    rec = B.binding_time(COMPLEX_LAMBDA, (0.0, c0 + 1e-5), (0.0, c0), B.mu_constants(2)[0])
    assert rec.overflow and rec.n_last == len(rec.w_history) == 761
    assert rec.w_history[760] == 1.9999999999992246e-05


def _departure_starts(map, count, seed):
    d, c0 = map.degree, map.c0_origin

    def draw(gen, m):
        dw = 10.0 ** gen.uniform(-4.0, -2.0, m)
        dz = 10.0 ** gen.uniform(-4.0, -2.0, m)
        pw = np.exp(2j * np.pi * gen.random(m))
        pz = np.exp(2j * np.pi * gen.random(m))
        return np.column_stack([dz**d * pz, c0 + dw**d * pw])

    rows = mc.draw_blocks(seed, "bounds_departure", count, draw)
    return [(row[0], row[1]) for row in rows]


@pytest.mark.parametrize("seed", [7, 13])
def test_departure_matches_per_start_loop(seed):
    starts = _departure_starts(CHEBYSHEV, 1500, seed)
    # excluded starts (delta = 0 and delta >= 0.05) ride along
    starts += [(0.0, CHEBYSHEV.c0_origin), (0.0, CHEBYSHEV.c0_origin + 0.1)]
    got = BD.audit_critical_value_departure(CHEBYSHEV, starts, 0.8)
    want = reference_departure(CHEBYSHEV, starts, 0.8)
    assert got == want
    assert got.samples == 1500 and got.min_ratio_location is not None


def test_departure_on_complex_lambda_map():
    map = build_map(0.6 - 0.1j, 2, [[-0.1 + 0.65j, 1.0, 0.2]])
    starts = _departure_starts(map, 300, 5)
    assert (BD.audit_critical_value_departure(map, starts, 0.8, horizon=60)
            == reference_departure(map, starts, 0.8, horizon=60))


def test_long_binding_regime():
    # real starts on the Chebyshev Julia interval with separations from
    # 1e-15 to 1e-6 bind far later than the sampler's pairs (at most ~9)
    gen = np.random.default_rng(5)
    count = 400
    z = gen.uniform(-0.9 * CHEBYSHEV.r0, 0.9 * CHEBYSHEV.r0, count)
    w = gen.uniform(-2.0, 2.0, count)
    sep = 10.0 ** gen.uniform(-15.0, -6.0, count)
    dw = sep * np.abs(w) * np.exp(2j * np.pi * gen.random(count))
    dz = sep * CHEBYSHEV.r0 * np.exp(2j * np.pi * gen.random(count))
    pairs = [((a, b), (a + c, b + e)) for a, b, c, e in zip(z, w, dz, dw)]
    mu = B.mu_constants(2)[0]
    (block,) = B.audit_pair_blocks(CHEBYSHEV, pairs, mu, horizon=2000)
    assert not block.failed_lemma23.any() and not block.failed_lemma24.any()
    assert (~np.isnan(block.least_lemma24)).sum() > count // 2
    assert block.binding_time.max() > 20
    for j in range(0, count, 20):
        assert_row_is_the_record(block, j, CHEBYSHEV, *pairs[j], mu, 2000)


# ---------------------------------------------------------------------------
# fixed blocks: pair audits and the departure audit bind BLOCK_PAIRS at a time


def test_pair_blocks_match_one_batch():
    # one block and a partial one; every block column and the CSV must be
    # bitwise those of one kernel batch over all pairs, with pair ids
    # running on across blocks
    count, mu = B.BLOCK_PAIRS + 37, B.mu_constants(2)[0]
    pts = B._draw_bound_pairs(CHEBYSHEV, count, 3)
    audits = B.audit_pair_blocks(CHEBYSHEV, pts, horizon=300)
    assert (audits.mu, audits.horizon, len(audits)) == (mu, 300, count)
    blocks = list(audits)
    assert [(b.first_id, len(b.binding_time)) for b in blocks] == [
        (0, B.BLOCK_PAIRS), (B.BLOCK_PAIRS, 37)]

    h = B._bind(CHEBYSHEV, pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3], mu, 300)
    ratio, expansion = B._ratio_reduction(h), B._expansion_reduction(h, mu)
    w = h.data["w_history"]
    w_final = np.array([w[h.start[j] + n] if n > 0 else math.nan
                        for j, n in enumerate(h.w_len.tolist())])
    col = {name: np.concatenate([getattr(b, name) for b in blocks])
           for name in B.PairBlock._fields[1:]}
    for got, want in ((col["binding_time"], h.binding),
                      (col["censored"], h.binding < 0),
                      (col["w_final"], w_final),
                      (col["least_lemma23"], ratio.least),
                      (col["failed_lemma23"], ratio.failed),
                      (col["least_lemma24"], expansion.least),
                      (col["failed_lemma24"], expansion.failed)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    # the CSV holds the one batch's values, read back exactly
    lines = "".join(B.binding_csv_chunks(blocks, mu)).splitlines()
    assert lines[0] == ",".join(B.CSV_COLUMNS) and len(lines) == count + 1
    for j, line in enumerate(lines[1:]):
        i, m, b, cens, *floats = line.split(",")
        t = int(h.binding[j])
        assert (int(i), float(m), b, cens) == (j, mu, "" if t < 0 else str(t), str(int(t < 0)))
        assert [repr(float(v)) for v in floats] == [
            repr(float(c[j])) for c in (w_final, ratio.least, expansion.least)]
    # the sampled-pairs form writes the same CSV
    listed = B.audit_pair_blocks(CHEBYSHEV, B.sample_bound_pairs(CHEBYSHEV, count, 3),
                                 mu, horizon=300)
    assert ("".join(B.binding_csv_chunks(listed, mu))
            == "".join(B.binding_csv_chunks(blocks, mu)))
    # pairs on both sides of the block boundary, against their own records
    for j in (0, B.BLOCK_PAIRS - 1, B.BLOCK_PAIRS, count - 1):
        x, y = (pts[j, 0], pts[j, 1]), (pts[j, 2], pts[j, 3])
        assert_row_is_the_record(blocks[j // B.BLOCK_PAIRS], j % B.BLOCK_PAIRS,
                                 CHEBYSHEV, x, y, mu, 300)


def test_empty_pair_batches():
    audits = B.audit_pair_blocks(CHEBYSHEV, [])
    assert (len(audits), list(audits)) == (0, [])
    assert (audits.mu, audits.horizon) == (B.mu_constants(2)[0], B.DEFAULT_HORIZON)
    assert "".join(B.binding_csv_chunks(audits, audits.mu)) == ",".join(B.CSV_COLUMNS) + "\n"


def test_pair_blocks_check_inputs_before_binding():
    pairs = [((0.0, 0.5), (0.0, 0.5 + 1e-6))] * 3
    with pytest.raises(PreconditionViolated):
        B.audit_pair_blocks(CHEBYSHEV, pairs, mu=1.0)
    with pytest.raises(HorizonNonPositive):
        B.audit_pair_blocks(CHEBYSHEV, pairs, horizon=0)
    far = pairs + [((0.99 * CHEBYSHEV.r0 + 0.5, 0.5), (0.0, 0.5))]
    with pytest.raises(BaseOutsideDomain):
        B.audit_pair_blocks(CHEBYSHEV, far)


EXCLUDED = (0.0, CHEBYSHEV.c0_origin)  # delta = 0: not admitted


def _around_boundary(first, second):
    """first at the last position of block 0, second at the first of
    block 1, excluded starts elsewhere."""
    return ([EXCLUDED] * (B.BLOCK_PAIRS - 1) + [first, second]
            + [EXCLUDED] * 3)


def test_departure_tie_across_a_block_boundary_goes_to_the_earliest_start():
    start = _departure_starts(CHEBYSHEV, 1, 7)[0]
    starts = _around_boundary(start, start)
    got = BD.audit_critical_value_departure(CHEBYSHEV, starts, 0.8)
    assert got.samples == 2
    assert got.min_ratio_location["start"] == B.BLOCK_PAIRS - 1
    assert got == reference_departure(CHEBYSHEV, starts, 0.8)


def test_departure_least_ratio_in_a_later_block_wins():
    a, b = _departure_starts(CHEBYSHEV, 2, 7)
    locations = set()
    for first, second in ((a, b), (b, a)):
        starts = _around_boundary(first, second)
        got = BD.audit_critical_value_departure(CHEBYSHEV, starts, 0.8)
        assert got == reference_departure(CHEBYSHEV, starts, 0.8)
        locations.add(got.min_ratio_location["start"])
    assert locations == {B.BLOCK_PAIRS - 1, B.BLOCK_PAIRS}


@pytest.mark.parametrize("starts", [[], [EXCLUDED] * (2 * B.BLOCK_PAIRS + 1)],
                         ids=["empty", "none-admitted"])
def test_departure_without_admitted_starts(starts):
    got = BD.audit_critical_value_departure(CHEBYSHEV, starts, 0.8)
    assert (got.samples, got.violations, got.min_ratio_location) == (0, 0, None)
    assert got == reference_departure(CHEBYSHEV, starts, 0.8)


@pytest.fixture(scope="module")
def departure_mix():
    """1500 drawn starts with excluded ones among and after them, and the
    per-start loop's audit of them."""
    starts = _departure_starts(CHEBYSHEV, 1500, 7)
    for at in (0, 5, 6, 700):
        starts.insert(at, EXCLUDED)
    starts.append((0.0, CHEBYSHEV.c0_origin + 0.1))  # delta >= 0.05
    return starts, reference_departure(CHEBYSHEV, starts, 0.8)


@pytest.mark.parametrize("block", [1, 3, 7])
def test_departure_is_the_same_across_block_sizes(block, departure_mix, monkeypatch):
    # the default block holds all 1505 starts; these fold hundreds of blocks
    starts, want = departure_mix
    monkeypatch.setattr(B, "BLOCK_PAIRS", block)
    got = BD.audit_critical_value_departure(CHEBYSHEV, starts, 0.8)
    assert got == want
    assert got.samples == 1500 and got.violations > 0


@pytest.mark.parametrize("block", [1, 3])
def test_departure_tie_between_small_blocks_goes_to_the_earliest_start(block, monkeypatch):
    # the same start at positions 2 and 3 + block, in two blocks with
    # excluded starts between them: their ratios tie bit for bit
    start = _departure_starts(CHEBYSHEV, 1, 7)[0]
    starts = [EXCLUDED] * 2 + [start] + [EXCLUDED] * block + [start]
    monkeypatch.setattr(B, "BLOCK_PAIRS", block)
    got = BD.audit_critical_value_departure(CHEBYSHEV, starts, 0.8)
    assert (got.samples, got.min_ratio_location["start"]) == (2, 2)
    assert got == reference_departure(CHEBYSHEV, starts, 0.8)
