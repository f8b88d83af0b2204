"""Derivative lower-bound audits, departure scan, and return-time floor.

Oracle strategy: the one-dimensional audits are cross-checked against a
raw-Python rescan of the same statements (list arithmetic, no shared numpy
path); return times against a scalar first-hit loop; the critical-value
departure audit against a hand-rolled one-dimensional scan on invariant-line
starts.  Closed-form cases pin exact fitted constants at the Chebyshev
fixed point w = 2, where |Df0^n| = 4^n and every orbit magnitude is 2.
"""

import math

import numpy as np
import pytest

from skewdyn import bounds as BD
from skewdyn.binding import mu_constants
from skewdyn.core import OrbitTrace, iterate, iterate_block
from skewdyn.errors import (
    AttractingCyclePresent,
    EmptyGrid,
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


# ---------------------------------------------------------------------------


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
        traces = [iterate(cheb, (0.0, w), 50) for w in ws]
        main, _ = BD.audit_tame(cheb, traces, 0.9)
        oned = BD.audit_onedim(cheb.f0(), ws, n_max=50, lambda0=0.9, delta=0.5)
        eq = oned["eq_1dim_der"]
        assert main.samples == eq.samples
        assert main.fitted_constant == pytest.approx(eq.fitted_constant, rel=1e-9)

    def test_min_variant_is_a_restriction(self, cheb):
        rng = np.random.default_rng(3)
        traces = [iterate(cheb, (0.0, w), 50) for w in rng.uniform(-2.0, 2.0, 100)]
        main, amin = BD.audit_tame(cheb, traces, 0.9)
        assert 0 < amin.samples < main.samples
        assert amin.passed and main.passed

    def test_base_outside_r0_skipped(self, cheb):
        # traces built elsewhere may carry a base outside B(0, r0)
        tr = make_trace(cheb, 0.9, [0.3, 1.91, 1.6481], [0.0, 1.0, 2.0])
        main, amin = BD.audit_tame(cheb, [tr], 0.9)
        assert main.samples == 0 and amin.samples == 0

    def test_untame_start_skipped(self, cheb):
        # |z0| > |w0|^d from step 0, so there is no tame prefix at all
        tr = iterate(cheb, (0.4, 1e-3), 20)
        assert not tr.tame_flags[0]
        main, amin = BD.audit_tame(cheb, [tr], 0.9)
        assert main.samples == 0 and amin.samples == 0

    def test_lambda0_must_dominate_lam(self, cheb):
        with pytest.raises(PreconditionViolated):
            BD.audit_tame(cheb, [], 0.4)

    def test_attracting_cycle_rejected(self):
        with pytest.raises(AttractingCyclePresent):
            BD.audit_tame(basilica_map(), [], 0.9)

    def test_perturbed_batch_positive_constants(self, cheb):
        rng = np.random.default_rng(17)
        z0 = (0.1 * np.sqrt(rng.uniform(0, 1, 300))
              * np.exp(2j * np.pi * rng.uniform(0, 1, 300)))
        w0 = rng.uniform(-2.0, 2.0, 300).astype(complex)
        traces = list(iterate_block(cheb, z0, w0, 200).to_traces(cheb))
        main, amin = BD.audit_tame(cheb, traces, 0.8)
        assert main.passed and main.fitted_constant > 0
        assert amin.passed and amin.fitted_constant > 0


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


class TestReturnSynthetic:
    """Hand-built traces with unit derivative pin the right-hand side."""

    def test_equal_endpoints_pure_exponential(self, cheb):
        tr = make_trace(cheb, 1e-3, [0.04, 0.2, 0.04], [0, 0, 0])
        a = BD.audit_return(cheb, [tr], 0.8, 0.05)
        # RHS = lam0^2 * min(1, 1): ratio = 1 / 0.64
        assert a.samples == 1
        assert a.fitted_constant == pytest.approx(1 / 0.64, rel=1e-12)
        assert a.violations == 0
        assert a.min_ratio_location == {"start": 0, "n": 2}

    def test_deep_return_relaxes_the_floor(self, cheb):
        tr = make_trace(cheb, 1e-3, [0.01, 0.2, 0.04], [0, 0, 0])
        a = BD.audit_return(cheb, [tr], 0.8, 0.05)
        # (|w0|/|w_n|)^(d-1) = 1/4: ratio = 1 / (0.64 * 0.25)
        assert a.fitted_constant == pytest.approx(6.25, rel=1e-12)

    def test_shallow_endpoint_clamps_at_one(self, cheb):
        tr = make_trace(cheb, 1e-3, [0.04, 0.2, 0.01], [0, 0, 0])
        a = BD.audit_return(cheb, [tr], 0.8, 0.05)
        assert a.fitted_constant == pytest.approx(1 / 0.64, rel=1e-12)

    def test_middle_dip_below_endpoint_excluded(self, cheb):
        # n=2 fails the "middles stay above |w_n|" hypothesis; n=1 survives
        tr = make_trace(cheb, 1e-3, [0.04, 0.001, 0.04], [0, 0, 0])
        a = BD.audit_return(cheb, [tr], 0.8, 0.05)
        assert a.samples == 1
        assert a.min_ratio_location == {"start": 0, "n": 1}
        assert a.fitted_constant == pytest.approx(1.25, rel=1e-12)

    def test_violation_counted(self, cheb):
        tr = make_trace(cheb, 1e-3, [0.04, 0.2, 0.04], [0, 0, math.log(0.5)])
        a = BD.audit_return(cheb, [tr], 0.8, 0.05)
        assert a.violations == 1
        assert a.fitted_constant == pytest.approx(0.5 / 0.64, rel=1e-12)

    def test_base_radius_filter(self, cheb):
        # default eta0 = r0/10 = 0.05; a base at 0.06 is out of range
        tr = make_trace(cheb, 0.06, [0.04, 0.2, 0.04], [0, 0, 0])
        a = BD.audit_return(cheb, [tr], 0.8, 0.05)
        assert a.samples == 0

    def test_delta0_positive(self, cheb):
        with pytest.raises(PreconditionViolated):
            BD.audit_return(cheb, [], 0.8, 0.0)


class TestReturnOnOrbits:
    def test_cycle_free_map_never_violates(self, cheb):
        rng = np.random.default_rng(23)
        z0 = rng.uniform(1e-9, 1e-7, 400).astype(complex)
        w0 = rng.uniform(-0.05, 0.05, 400).astype(complex)
        traces = list(iterate_block(cheb, z0, w0, 250).to_traces(cheb))
        a = BD.audit_return(cheb, traces, 0.8, 0.05)
        assert a.samples > 100
        assert a.violations == 0
        assert a.fitted_constant > 1.0

    def test_attracting_cycle_breaks_the_bound(self):
        # the fiber cycle of w^2 - 1 collapses derivatives through w = 0
        # faster than any uniform return floor; the audit must say so
        m = basilica_map()
        tr = iterate(m, (1e-6, 0.04), 10)
        a = BD.audit_return(m, [tr], 0.8, 0.05)
        assert a.samples >= 2
        assert a.violations == a.samples
        assert a.fitted_constant < 0.3


class TestSideLemmas:
    def test_floor_variants_on_generic_starts(self, cheb):
        rng = np.random.default_rng(31)
        z0 = rng.uniform(-0.04, 0.04, 300).astype(complex)
        w0 = rng.uniform(-2.0, 2.0, 300).astype(complex)
        traces = list(iterate_block(cheb, z0, w0, 60).to_traces(cheb))
        side = BD.audit_side_lemmas(cheb, traces, 0.8, 0.5)
        assert side["lem31"].passed and side["lem31"].fitted_constant > 0
        assert side["lem32"].passed and side["lem32"].fitted_constant > 0
        assert side["lem32"].samples < side["lem31"].samples
        # off-line starts never feed the invariant-line variant
        assert side["lem33"].samples == 0

    def test_small_return_variant_on_the_line(self, cheb):
        rng = np.random.default_rng(37)
        traces = [iterate(cheb, (0.0, w), 60) for w in rng.uniform(-0.9, 0.9, 200)]
        side = BD.audit_side_lemmas(cheb, traces, 0.8, 0.5)
        assert side["lem33"].samples > 0
        assert side["lem33"].violations == 0
        assert side["lem33"].fitted_constant > 1 - 1e-9

    def test_eta_filter_empties_offline_variants(self, cheb):
        rng = np.random.default_rng(31)
        z0 = rng.uniform(0.01, 0.04, 50).astype(complex)
        w0 = rng.uniform(-2.0, 2.0, 50).astype(complex)
        traces = list(iterate_block(cheb, z0, w0, 30).to_traces(cheb))
        side = BD.audit_side_lemmas(cheb, traces, 0.8, 0.5, eta=0.0)
        assert side["lem31"].samples == 0
        assert side["lem32"].samples == 0

    def test_delta_positive(self, cheb):
        with pytest.raises(PreconditionViolated):
            BD.audit_side_lemmas(cheb, [], 0.8, -1.0)


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

    def test_default_mu_is_the_standard_constant(self, cheb):
        starts = [(1e-9, cheb.c0_origin + 1e-6)]
        a = BD.audit_critical_value_departure(cheb, starts, 0.8)
        b = BD.audit_critical_value_departure(
            cheb, starts, 0.8, mu=mu_constants(cheb.degree)[0])
        assert a.fitted_constant == b.fitted_constant
        assert a.min_ratio_location == b.min_ratio_location


class TestPrzytyckiReturn:
    def test_matches_scalar_first_hit_scan(self, cheb):
        grid = BD.critical_ball_grid(cheb, 1e-2, per_axis=20)
        rep = BD.przytycki_return(cheb, 1e-2, grid, horizon=200)
        ora = oracle_first_return(
            cheb.lam, cheb.degree, cheb.fiber_coeffs[0], cheb.k, 1e-2, grid, 200)
        assert rep.n_min is not None
        assert rep.n_min == ora

    def test_floor_grows_with_depth(self, cheb):
        reps = [
            BD.przytycki_return(cheb, eps, BD.critical_ball_grid(cheb, eps))
            for eps in (1e-2, 1e-3, 1e-4)
        ]
        assert [r.n_min for r in reps] == [6, 12, 19]
        mins = [r.n_min for r in reps]
        assert mins == sorted(mins)
        for r in reps:
            assert r.fitted_constant > 0
            assert r.admitted == 10000

    def test_no_return_reported_as_none(self, cheb):
        # (0, 0) maps onto the repelling fixed point 2 and never comes back
        rep = BD.przytycki_return(cheb, 1e-2, [(0.0, 0.0)], horizon=50)
        assert rep.admitted == 1
        assert rep.n_min is None
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
    def test_sample_traces_worker_independent(self, cheb):
        a = BD.sample_traces(cheb, 300, 20, seed=99, threads=1)
        b = BD.sample_traces(cheb, 300, 20, seed=99, threads=4)
        assert len(a) == len(b) == 300
        assert [t.z0 for t in a] == [t.z0 for t in b]
        assert [t.w0 for t in a] == [t.w0 for t in b]

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
