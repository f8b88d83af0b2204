"""Series evaluations: disk nonvanishing, X0, Lyapunov floor, nondegeneracy.

The quadratic fiber w^2 - 2 is the workhorse: its critical value -2 lands on
the fixed point 2 after one step, the derivative along that orbit is exactly
-4^n, and every series below collapses to a geometric closed form that the
tests pin down at tight tolerances.
"""

import cmath
import json
import math

import pytest

from skewdyn.core import build_map
from skewdyn.errors import (
    AttractingCyclePresent,
    CriticalOrbitDegenerate,
    PreconditionViolated,
)
from skewdyn.gallery import basilica_map, chebyshev_map, general_embedding, nearfixed_map
from skewdyn.series import (
    SeriesEvaluation,
    geometric_tail,
    levin_series,
    lyapunov_lower,
    nondegeneracy,
    x0_constant,
)


def exact_cheb_disk_series(z):
    # 1 - sum_{n>=1} (z/4)^n, summed in closed form
    return (1.0 - z / 2.0) / (1.0 - z / 4.0)


def raw_reciprocal_terms(f0, c, n, weight):
    # independent recomputation, scalar Python arithmetic only
    terms = []
    w = complex(c)
    prod = 1.0 + 0.0j
    for i in range(1, n + 1):
        prod *= f0.deriv(w)
        w = f0(w)
        terms.append(weight**i / prod)
    return terms


def parabolic_map():
    return build_map(0.5, 2, [[0.25, 1.0]])


class TestLevinSeries:
    def test_chebyshev_value_at_half(self):
        ev = levin_series(chebyshev_map(0.5).f0(), [0.5], 60)
        assert ev.kind == "F_series"
        assert abs(ev.value - 6.0 / 7.0) < 1e-10
        assert ev.verdict == "nonvanishing on samples"

    def test_truncation_bound_on_disk(self):
        f0 = chebyshev_map(0.5).f0()
        for z in (0.5, -0.8, 0.3 + 0.4j, 0.9):
            for n in (12, 25, 60):
                ev = levin_series(f0, [z], n)
                bound = abs(z / 4.0) ** (n + 1) / (1.0 - abs(z) / 4.0)
                assert abs(ev.value - exact_cheb_disk_series(z)) <= bound + 1e-15

    def test_zero_point_gives_one(self):
        ev = levin_series(chebyshev_map(0.5).f0(), [0.0], 40)
        assert ev.value == 1.0
        assert ev.tail_estimate == 0.0

    def test_headline_value_is_min_modulus_sample(self):
        ev = levin_series(chebyshev_map(0.5).f0(), [0.0, 0.5, -0.5], 40)
        mods = [abs(complex(p["value_re"], p["value_im"])) for p in ev.per_point]
        assert abs(ev.value) == pytest.approx(min(mods), rel=1e-15)
        assert len(ev.per_point) == 3

    def test_partial_sums_match_raw_recomputation(self):
        f0 = chebyshev_map(0.5).f0()
        z = 0.3 + 0.4j
        ev = levin_series(f0, [z], 50)
        acc = 1.0 + 0.0j
        for i, t in enumerate(raw_reciprocal_terms(f0, f0(0.0), 50, z), start=1):
            acc += t
            assert abs(ev.partial_sums[i] - acc) <= 1e-12 * abs(acc)

    def test_tail_matches_geometric_remainder(self):
        # terms are exactly -(z/4)^n, so the extrapolated tail is the true one
        ev = levin_series(chebyshev_map(0.5).f0(), [0.5], 40)
        exact = (0.5 / 4.0) ** 41 / (1.0 - 0.5 / 4.0)
        assert ev.tail_estimate == pytest.approx(exact, rel=1e-10)
        assert ev.tail_estimate >= 0.0

    def test_parabolic_short_run_lacks_geometric_control(self):
        # reciprocal derivatives grow polynomially near a parabolic point, so
        # a short run sees a term ratio >= 1 and reports an infinite tail
        f0 = parabolic_map().f0()
        short = levin_series(f0, [0.9], 10)
        assert short.tail_estimate == math.inf
        assert short.verdict == "possibly vanishing"
        long = levin_series(f0, [0.9], 400)
        assert long.tail_estimate < 1e-10
        assert long.verdict == "nonvanishing on samples"

    def test_attracting_cycle_raises(self):
        with pytest.raises(AttractingCyclePresent):
            levin_series(basilica_map(0.5).f0(), [0.1], 30)

    def test_point_outside_disk_raises(self):
        with pytest.raises(PreconditionViolated):
            levin_series(chebyshev_map(0.5).f0(), [0.96], 30)

    def test_empty_points_raise(self):
        with pytest.raises(PreconditionViolated):
            levin_series(chebyshev_map(0.5).f0(), [], 30)

    def test_multicritical_fiber_raises(self):
        cubic = build_map(0.5, 3, [[0.0, 1.0], [-3.0], [0.0]], mode="general")
        with pytest.raises(PreconditionViolated):
            levin_series(cubic.f0(), [0.5], 30)

    def test_json_shape(self):
        ev = levin_series(chebyshev_map(0.5).f0(), [0.5, 0.25j], 50)
        js = ev.to_json()
        assert sorted(js.keys()) == [
            "N", "kind", "per_point", "tail_estimate", "value_im", "value_re", "verdict",
        ]
        assert js["N"] == 50
        assert len(js["per_point"]) == 2
        json.dumps(js)


class TestX0Constant:
    def test_chebyshev_six_sevenths(self):
        ev = x0_constant(chebyshev_map(0.5), 60)
        assert abs(ev.value - 6.0 / 7.0) < 1e-10
        assert ev.verdict == "nonzero"

    def test_doubled_base_power(self):
        # c(z) = -2 + z^2 has k = 2; terms pick up lambda^(2i) instead of
        # lambda^i, so X0 = 1 - sum (1/16)^i = 14/15 and sits closer to 1
        m = build_map(0.5, 2, [[-2.0, 0.0, 1.0]])
        assert m.k == 2
        ev = x0_constant(m, 60)
        assert abs(ev.value - 14.0 / 15.0) < 1e-12
        base = x0_constant(chebyshev_map(0.5), 60)
        assert abs(ev.value - 1.0) < abs(base.value - 1.0)

    def test_vanishing_multiplier_limit(self):
        ev = x0_constant(build_map(1e-6, 2, [[-2.0, 1.0]]), 60)
        assert abs(ev.value - 1.0) < 1e-6

    def test_partial_sums_are_cauchy(self):
        ev = x0_constant(chebyshev_map(0.5), 50)
        for j in range(1, 51):
            # geometric ratio 1/8: remainder after term j is t_j / 7
            assert abs(ev.value - ev.partial_sums[j]) <= 0.2 * math.exp(ev.term_logs[j - 1])

    def test_partial_sums_match_raw_recomputation(self):
        m = build_map(0.5, 2, [[-2.0, 0.0, 1.0]])
        ev = x0_constant(m, 50)
        f0 = m.f0()
        acc = 1.0 + 0.0j
        for i, t in enumerate(raw_reciprocal_terms(f0, f0(0.0), 50, m.lam**m.k), start=1):
            acc += t
            assert abs(ev.partial_sums[i] - acc) <= 1e-12 * abs(acc)

    def test_escaping_critical_orbit_keeps_the_finite_sum(self):
        # the critical orbit of w^3 + 1.2i escapes: (f0^n)'(c) overflows to
        # inf within the 120 terms, and every term from there on is 0
        m = build_map(0.6 - 0.1j, 3, [[1.2j, 1.0]])
        ev = x0_constant(m, 120)
        cut = ev.term_logs.index(-math.inf)
        assert 5 < cut < 120
        assert all(t == -math.inf for t in ev.term_logs[cut:])
        assert cmath.isfinite(ev.value)
        assert all(s == ev.value for s in ev.partial_sums[cut:])
        assert ev.tail_estimate == 0.0
        assert ev.verdict == "nonzero"
        assert abs(ev.value - x0_constant(m, 5).value) < 1e-8

    def test_finite_orbits_unchanged_bitwise(self):
        # recorded before escaping orbits were cut off
        for m, value, tail in [
            (chebyshev_map(0.5), 0.8571428571428572, 6.082799771439049e-110),
            (build_map(0.5, 2, [[-2.0, 0.0, 1.0]]), 0.9333333333333333,
             2.1355553015281697e-146),
        ]:
            ev = x0_constant(m, 120)
            assert ev.value == value
            assert ev.tail_estimate == tail

    def test_general_mode_raises(self):
        m = build_map(0.5, 2, [[-2.0, 1.0], [0.0]], mode="general")
        with pytest.raises(PreconditionViolated):
            x0_constant(m)

    def test_attracting_cycle_raises(self):
        with pytest.raises(AttractingCyclePresent):
            x0_constant(basilica_map(0.5))


class TestLyapunovLower:
    def test_chebyshev_log_four_at_every_n(self):
        ev = lyapunov_lower(chebyshev_map(0.5).f0(), -2.0, 400)
        target = math.log(4.0)
        assert abs(ev.value.real - target) < 1e-12
        for est in ev.partial_sums:
            assert abs(est - target) < 1e-12
        assert ev.verdict == "positive"
        assert ev.n_range == (200, 400)

    def test_fixed_point_gives_log_multiplier(self):
        # orbit started at the attracting fixed point q never moves, so the
        # estimate is exactly log |f'(q)|
        q = (1.0 - math.sqrt(0.2)) / 2.0
        ev = lyapunov_lower(nearfixed_map(0.5).f0(), q, 400)
        assert abs(ev.value.real - math.log(1.0 - math.sqrt(0.2))) < 1e-12
        assert ev.verdict == "nonpositive"

    def test_parabolic_drifts_toward_zero_from_below(self):
        f0 = parabolic_map().f0()
        short = lyapunov_lower(f0, 0.25, 200)
        long = lyapunov_lower(f0, 0.25, 2000)
        assert short.value.real < long.value.real < 0.0
        assert short.verdict == "nonpositive"
        assert short.n_range == (100, 200)
        assert long.n_range == (1000, 2000)

    def test_estimate_is_window_minimum(self):
        ev = lyapunov_lower(parabolic_map().f0(), 0.25, 300)
        lo, hi = ev.n_range
        assert ev.value.real == min(ev.partial_sums[lo - 1:hi])

    def test_degenerate_orbit_raises(self):
        # basilica critical value -1 maps to the critical point 0
        with pytest.raises(CriticalOrbitDegenerate):
            lyapunov_lower(basilica_map(0.5).f0(), -1.0, 50)

    def test_short_horizon_raises(self):
        with pytest.raises(PreconditionViolated):
            lyapunov_lower(chebyshev_map(0.5).f0(), -2.0, 1)


class TestNondegeneracy:
    def test_embedded_unicritical_cross_check(self):
        # c(z) = c(0) + z reduces the series to X0 times c0'(0)
        emb = general_embedding(chebyshev_map(0.5))
        evals = nondegeneracy(emb, 60)
        assert len(evals) == 1
        x0 = x0_constant(chebyshev_map(0.5), 60)
        expected = x0.value * emb.coeff_deriv_at(0, 0.0)
        assert abs(evals[0].value - expected) < 1e-10
        assert evals[0].verdict == "nonzero"
        rec = evals[0].per_point[0]
        assert rec["line_label"] == "undecided"
        assert rec["simple_root_margin"] == pytest.approx(2.0, rel=1e-12)

    def test_cubic_two_independent_values(self):
        # f0 = w^3 - 3w: critical points +-1, values -+2 both fixed with
        # derivative 9, G == 1, so each series sums to 1 + (l/9)/(1-l/9)
        cubic = build_map(0.5, 3, [[0.0, 1.0], [-3.0], [0.0]], mode="general")
        evals = nondegeneracy(cubic, 60)
        assert len(evals) == 2
        roots = sorted(e.per_point[0]["root_re"] for e in evals)
        assert roots == pytest.approx([-1.0, 1.0], abs=1e-10)
        for e in evals:
            assert abs(e.value - 18.0 / 17.0) < 1e-10
            assert e.verdict == "nonzero"
            assert e.per_point[0]["simple_root_margin"] == pytest.approx(6.0, rel=1e-10)

    def test_constant_coefficients_flagged_degenerate(self):
        m = build_map(0.5, 2, [[-2.0], [0.0]], mode="general")
        evals = nondegeneracy(m, 40)
        assert len(evals) == 1
        assert evals[0].verdict == "degenerate"
        assert evals[0].value == 0.0

    def test_basin_critical_value_skipped(self):
        # w^2 + 0.2 pulls its critical orbit into an attracting fixed point,
        # so the invariant-line classifier rules the value off the boundary
        m = build_map(0.5, 2, [[0.2, 1.0]], mode="general")
        evals = nondegeneracy(m, 40)
        assert len(evals) == 1
        assert evals[0].verdict == "not_on_julia"
        assert evals[0].per_point[0]["line_label"].startswith("cycle")
        assert evals[0].n_terms == 0

    def test_partial_sums_match_raw_recomputation(self):
        cubic = build_map(0.5, 3, [[0.0, 1.0], [-3.0], [0.0]], mode="general")
        evals = nondegeneracy(cubic, 40)
        f0 = cubic.f0()
        for e in evals:
            rec = e.per_point[0]
            cval = complex(rec["critical_value_re"], rec["critical_value_im"])
            # G == 1 for this map, so terms are lambda^i / (f0^i)'(cval)
            acc = 1.0 + 0.0j
            for i, t in enumerate(raw_reciprocal_terms(f0, cval, 40, cubic.lam), start=1):
                acc += t
                assert abs(e.partial_sums[i] - acc) <= 1e-12 * abs(acc)

    def test_quartic_roots_are_fiber_critical_points(self):
        # f0 = w^4 - 2.6 w^2 + 0.3 w + 1: three simple critical points with
        # distinct critical values, all left undecided on the invariant line
        m = build_map(0.5, 4, [[1.0, 1.0], [0.3], [-2.6], [0.0]], mode="general")
        f0 = m.f0()
        evals = nondegeneracy(m, 40)
        roots = [complex(e.per_point[0]["root_re"], e.per_point[0]["root_im"])
                 for e in evals]
        assert roots == f0.critical_points()
        assert all(abs(f0.deriv(r)) <= 1e-12 for r in roots)
        values = [f0(r) for r in roots]
        assert len({round(v.real, 6) for v in values}) == 3
        assert [e.verdict for e in evals] == ["nonzero"] * 3

    def test_unicritical_mode_raises(self):
        with pytest.raises(PreconditionViolated):
            nondegeneracy(chebyshev_map(0.5))

    def test_json_shape(self):
        evals = nondegeneracy(general_embedding(chebyshev_map(0.5)), 40)
        js = evals[0].to_json()
        assert sorted(js.keys()) == [
            "N", "kind", "per_point", "tail_estimate", "value_im", "value_re", "verdict",
        ]
        json.dumps(js)


class TestGeometricTail:
    def test_empty_and_vanished(self):
        assert geometric_tail([]) == 0.0
        assert geometric_tail([-math.inf]) == 0.0
        assert geometric_tail([-math.inf, -math.inf]) == 0.0

    def test_single_term_is_uninformative(self):
        assert geometric_tail([0.5]) == math.inf

    def test_growing_terms_give_infinite_tail(self):
        assert geometric_tail([0.0, 1.0, 2.0]) == math.inf

    def test_exact_geometric_sequence(self):
        logs = [math.log(0.5**n) for n in range(1, 30)]
        # ratio 1/2: tail = t_N * r / (1 - r) = t_N
        assert geometric_tail(logs) == pytest.approx(0.5**29, rel=1e-12)

    def test_always_nonnegative(self):
        for logs in ([], [1.0], [0.0, -1.0], [0.0, 1.0], [-math.inf, 0.0]):
            assert geometric_tail(logs) >= 0.0


class TestEvaluationDataclass:
    def test_defaults(self):
        ev = SeriesEvaluation(kind="X0", n_terms=5, value=1.0 + 0.0j,
                              tail_estimate=0.0, verdict="nonzero")
        assert ev.partial_sums == []
        assert ev.to_json()["per_point"] == []
