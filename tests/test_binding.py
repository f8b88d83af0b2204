"""Binding time, accumulated difference sum W, and the two orbit-pair audits.

Oracle strategy: binding times are cross-checked against a raw-Python
stepwise reimplementation of the threshold definition; W values against a
term-by-term recomputation whose derivative magnitudes come from extended
precision finite differences (no cocycle product shared with the package
code path).
"""

import mpmath as mp
import numpy as np
import pytest

from skewdyn import binding as B
from skewdyn.errors import (
    BaseOutsideDomain,
    HorizonNonPositive,
    PreconditionViolated,
)
from skewdyn.gallery import basilica_map, chebyshev_map


# ---------------------------------------------------------------------------
# independent oracles


def oracle_binding_time(lam, c_coeffs, d, x, y, mu, horizon):
    """Stepwise threshold scan, raw Python arithmetic."""

    def c(z):
        return sum(a * z**j for j, a in enumerate(c_coeffs))

    (zx, wx), (zy, wy) = x, y
    zx, wx, zy, wy = complex(zx), complex(wx), complex(zy), complex(wy)
    for n in range(horizon + 1):
        sep = abs(wx - wy)
        thr = mu * min(abs(wx), abs(wy)) / (n + 1) ** 2
        if sep >= thr:
            return n
        wx = wx**d + c(zx)
        wy = wy**d + c(zy)
        zx *= lam
        zy *= lam
    return None


def oracle_w_fd(lam, c_coeffs, d, x, y, n):
    """Term-by-term W with finite-differenced derivative magnitudes."""
    with mp.workdps(50):
        lamm = mp.mpc(lam)

        def c(z):
            return sum(mp.mpc(a) * z**j for j, a in enumerate(c_coeffs))

        def fiber_n(z0, w0, steps):
            z, w = mp.mpc(z0), mp.mpc(w0)
            for _ in range(steps):
                w = w**d + c(z)
                z = lamm * z
            return w

        (z0, w0), (z1, w1) = x, y
        h = mp.mpf(10) ** -15
        total = 2 * abs(mp.mpc(w0) - mp.mpc(w1))
        for i in range(1, n + 1):
            up = fiber_n(z0, mp.mpc(w0) + h, i)
            dn = fiber_n(z0, mp.mpc(w0) - h, i)
            dfi = abs((up - dn) / (2 * h))
            dc = abs(c(lamm ** (i - 1) * mp.mpc(z0)) - c(lamm ** (i - 1) * mp.mpc(z1)))
            total += 2 * dc / dfi
        return float(total)


# ---------------------------------------------------------------------------


class TestMuConstants:
    def test_quadratic_values(self):
        mu0, mu1 = B.mu_constants(2)
        assert mu0 == pytest.approx(0.035, abs=1e-15)
        assert mu1 == pytest.approx(0.00875, abs=1e-15)

    def test_quadratic_series_check(self):
        chk = B.check_mu_constants(2)
        assert chk["series_sum"] == pytest.approx(0.11514538467937585, rel=1e-12)
        assert chk["series_cap"] == 0.125
        assert chk["series_ok"] and chk["chain_ok"]

    def test_cubic_values(self):
        mu0, _ = B.mu_constants(3)
        assert mu0 == pytest.approx(0.07 / 3, rel=1e-15)
        chk = B.check_mu_constants(3)
        assert chk["series_sum"] == pytest.approx(0.0768, abs=1e-3)
        assert chk["series_ok"] and chk["chain_ok"]

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_mu1_below_mu0(self, d):
        mu0, mu1 = B.mu_constants(d)
        assert 0 < mu1 < mu0
        assert B.check_mu_constants(d)["series_ok"]
        assert B.check_mu_constants(d)["chain_ok"]

    def test_degree_too_low(self):
        with pytest.raises(ValueError):
            B.mu_constants(1)


class TestBindingTime:
    def setup_method(self):
        self.map = basilica_map()
        self.mu0, self.mu1 = B.mu_constants(2)

    def test_identical_points_shadow(self):
        rec = B.binding_time(self.map, (0.01, 0.3), (0.01, 0.3), self.mu0)
        assert rec.shadowing and rec.censored and rec.binding_time is None

    def test_immediate_separation_is_zero(self):
        rec = B.binding_time(self.map, (0.0, 0.3), (0.0, 0.9), self.mu0)
        assert rec.binding_time == 0

    def test_threshold_tie_counts(self):
        # dyadic values make separation == threshold exact at n = 0
        mu = 0.03125
        rec = B.binding_time(self.map, (0.0, 1.0), (0.0, 1.03125), mu)
        assert rec.binding_time == 0

    def test_basilica_pinned_pair(self):
        rec = B.binding_time(self.map, (0.01, 0.3), (0.0, 0.3), self.mu0)
        assert rec.binding_time == 1
        assert rec.separations[1] >= rec.thresholds[1]
        assert rec.separations[0] < rec.thresholds[0]
        oracle = oracle_binding_time(0.5, [-1, 1], 2, ((0.01, 0.3)), ((0.0, 0.3)), self.mu0, 100)
        assert oracle == 1

    def test_against_oracle_random_pairs(self):
        pairs = B.sample_bound_pairs(self.map, 50, seed=31)
        for x, y in pairs:
            rec = B.binding_time(self.map, x, y, self.mu0, horizon=300)
            want = oracle_binding_time(0.5, [-1, 1], 2, x, y, self.mu0, 300)
            assert rec.binding_time == want

    def test_censoring_by_horizon(self):
        full = B.binding_time(self.map, (0.001, 0.3), (0.0, 0.3), self.mu0, horizon=300)
        assert full.binding_time is not None and full.binding_time > 1
        short = B.binding_time(self.map, (0.001, 0.3), (0.0, 0.3), self.mu0,
                               horizon=full.binding_time - 1)
        assert short.censored and short.binding_time is None

    def test_horizon_validation(self):
        with pytest.raises(HorizonNonPositive):
            B.binding_time(self.map, (0.0, 0.3), (0.0, 0.4), self.mu0, horizon=0)

    def test_mu_validation(self):
        with pytest.raises(PreconditionViolated):
            B.binding_time(self.map, (0.0, 0.3), (0.0, 0.4), 0.2)
        with pytest.raises(PreconditionViolated):
            B.binding_time(self.map, (0.0, 0.3), (0.0, 0.4), -0.01)

    def test_base_domain_validation(self):
        with pytest.raises(BaseOutsideDomain):
            B.binding_time(self.map, (self.map.r0 * 1.5, 0.3), (0.0, 0.4), self.mu0)


class TestWAccumulator:
    """W(x, y, n) for n = 1..b is a binding record's `w_history[n - 1]`."""

    # bound for 50 steps near the repelling fixed point of the basilica
    X, Y = (0.01, 1.6), (0.01 - 1e-10, 1.6 + 1e-10)

    def setup_method(self):
        self.map = basilica_map()
        self.mu0, _ = B.mu_constants(2)

    def history(self, x, y):
        return B.binding_time(self.map, x, y, self.mu0, horizon=50).w_history

    def test_identical_points(self):
        rec = B.binding_time(self.map, (0.01, 0.3), (0.01, 0.3), self.mu0)
        assert rec.shadowing and len(rec.w_history) == 0

    def test_same_base_reduces_to_fiber_gap(self):
        w = self.history((0.01, 1.5), (0.01, 1.5 + 1e-10))
        for n in (1, 3, 7):
            assert w[n - 1] == pytest.approx(2 * abs(1.5 - (1.5 + 1e-10)), rel=1e-15)

    def test_basilica_pinned_value_vs_fd_oracle(self):
        got = self.history(self.X, self.Y)[9]
        want = oracle_w_fd(0.5, [-1, 1], 2, self.X, self.Y, 10)
        assert got == pytest.approx(want, rel=1e-6)
        assert got == 2.749972982255435e-10

    def test_fd_oracle_across_depths(self):
        w = self.history(self.X, self.Y)
        for n in (1, 2, 5):
            want = oracle_w_fd(0.5, [-1, 1], 2, self.X, self.Y, n)
            assert w[n - 1] == pytest.approx(want, rel=1e-6)

    def test_record_history_matches_op(self):
        # one W per bound step, each the term-by-term sum
        x, y = (0.01, 0.3), (0.0, 0.31)
        rec = B.binding_time(self.map, x, y, self.mu0, horizon=50)
        assert rec.binding_time == len(rec.w_history) == 2
        for n in (1, 2):
            want = oracle_w_fd(0.5, [-1, 1], 2, x, y, n)
            assert rec.w_history[n - 1] == pytest.approx(want, rel=1e-6)

    def test_monotone_in_n(self):
        pairs = B.sample_bound_pairs(self.map, 20, seed=7)
        for x, y in pairs:
            vals = B.binding_time(self.map, x, y, self.mu0).w_history
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_critical_hit(self):
        # W needs 1/|Df^i(x)(v)|: a start on the critical point has none
        rec = B.binding_time(self.map, (0.0, 0.0), (0.0, 0.1), self.mu0)
        assert len(rec.w_history) == 0

    def test_general_mode_rejected(self):
        # W compares the single varying coefficient of a unicritical map
        from skewdyn.gallery import general_embedding

        gmap = general_embedding(self.map)
        rec = B.binding_time(gmap, self.X, self.Y, self.mu0, horizon=50)
        assert rec.binding_time == 50 and rec.w_history is None

    def test_n_validation(self):
        with pytest.raises(HorizonNonPositive):
            B.binding_time(self.map, (0.01, 0.3), (0.0, 0.31), self.mu0, horizon=0)


class TestRatioAudit:
    def setup_method(self):
        self.map = basilica_map()
        self.mu0, _ = B.mu_constants(2)

    def test_shadowing_skipped(self):
        rec = B.binding_time(self.map, (0.01, 0.3), (0.01, 0.3), self.mu0)
        audit = B.audit_lemma_ratio(rec)
        assert audit.skipped and audit.passed and audit.max_deviation == 0.0

    def test_first_step_same_fiber_coordinate(self):
        # first derivative factor depends only on w0, so the m=1 ratio is 1
        rec = B.binding_time(self.map, (0.01, 0.3), (0.02, 0.3), self.mu0, horizon=100)
        assert rec.binding_time is None or rec.binding_time >= 1
        audit = B.audit_lemma_ratio(rec)
        assert audit.n_checked >= 1
        assert audit.margins[0] == pytest.approx(0.5, abs=1e-15)

    def test_random_pairs_all_below_half(self):
        pairs = B.sample_bound_pairs(self.map, 300, seed=5)
        for x, y in pairs:
            rec = B.binding_time(self.map, x, y, self.mu0, horizon=400)
            audit = B.audit_lemma_ratio(rec)
            if not audit.skipped:
                assert audit.passed
                assert audit.max_deviation < 0.5


class TestExpansionAudit:
    def setup_method(self):
        self.map = basilica_map()
        self.mu0, _ = B.mu_constants(2)

    def test_shadowing_skipped(self):
        rec = B.binding_time(self.map, (0.01, 0.3), (0.01, 0.3), self.mu0)
        audit = B.audit_lemma_expansion(rec)
        assert audit.skipped and audit.passed

    def test_one_step_hand_expansion(self):
        # z0 = z: the step-1 inequality reduces to
        # 2 d |w0|^{d-1} |w0-w| >= |w0^d - w^d|, implied by the hand bound
        # |w0^d - w^d| <= d max(|w0|,|w|)^{d-1} |w0-w| (1 + 2 mu)
        d = self.map.degree
        for w0, w1 in [(0.3, 0.3005), (0.9, 0.901), (-1.1, -1.1002), (0.5 + 0.2j, 0.5005 + 0.2j)]:
            sep1 = abs(w0**d - w1**d)
            hand = d * max(abs(w0), abs(w1)) ** (d - 1) * abs(w0 - w1) * (1 + 2 * self.mu0)
            assert sep1 <= hand
            rec = B.binding_time(self.map, (0.01, w0), (0.01, w1), self.mu0, horizon=60)
            audit = B.audit_lemma_expansion(rec)
            if not audit.skipped and audit.n_checked >= 1:
                floor = 2.0 / (1 + 2 * self.mu0) * (abs(w0) / max(abs(w0), abs(w1))) ** (d - 1) - 1
                assert audit.margins[0] >= floor - 1e-12

    @staticmethod
    def synthetic_record(dfdw_at_2: float) -> B.BindingRecord:
        """A censored pair bound through n = 2 with |Df^1(x)(v)| = 2,
        |Df^2(x)(v)| = dfdw_at_2, separations 1e-4, 2e-4, 4e-4 and
        W(1) = 1, W(2) = 1.5: step 2's bound sep_2 / W(2) is 4e-4 / 1.5."""
        zeros = np.zeros(3)
        return B.BindingRecord(
            x=(0.01, 0.3), y=(0.01, 0.3001), mu=B.mu_constants(2)[0],
            horizon=10, binding_time=None, censored=True,
            xi_x=np.array([0.3, 0.4, 0.5], dtype=complex),
            xi_y=np.array([0.3001, 0.4002, 0.5004], dtype=complex),
            separations=np.array([1e-4, 2e-4, 4e-4]), thresholds=np.full(3, 0.1),
            log_vder_x=np.log([1.0, 2.0, dfdw_at_2]), log_vder_y=zeros,
            phase_x=zeros, phase_y=zeros, w_history=np.array([1.0, 1.5]))

    def test_derivative_below_the_bound_fails(self):
        # negative control: at step 2, |Df^2(x)(v)| = 1e-4 < 4e-4 / 1.5
        rec = self.synthetic_record(1e-4)
        audit = B.audit_lemma_expansion(rec)
        assert not audit.skipped and audit.n_checked == 2
        assert not audit.passed
        assert audit.min_margin == pytest.approx(1e-4 * 1.5 / 4e-4 - 1.0)
        reduction = B._expansion_reduction(B._Histories.of_record(rec), rec.mu)
        assert reduction.failed.tolist() == [True]
        # the same record with the derivative on the right side passes
        rec = self.synthetic_record(1e-3)
        assert B.audit_lemma_expansion(rec).passed
        reduction = B._expansion_reduction(B._Histories.of_record(rec), rec.mu)
        assert reduction.failed.tolist() == [False]

    def test_random_pairs_all_pass(self):
        pairs = B.sample_bound_pairs(self.map, 300, seed=13)
        for x, y in pairs:
            rec = B.binding_time(self.map, x, y, self.mu0, horizon=400)
            audit = B.audit_lemma_expansion(rec)
            if not audit.skipped:
                assert audit.passed, f"margin {audit.min_margin} for pair {x}, {y}"


class TestChainProperty:
    """Two-link chains of bound pairs against the tighter-threshold time."""

    def setup_method(self):
        self.map = basilica_map()
        self.mu0, self.mu1 = B.mu_constants(2)

    def _triples(self, count, seed):
        gen = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            z = 0.3 * self.map.r0 * (gen.random() * 2 - 1)
            w = 0.2 + 0.9 * gen.random()
            d1 = self.mu1 * w * 10.0 ** (-2 * gen.random())
            d2 = self.mu1 * w * 10.0 ** (-2 * gen.random())
            out.append(((z, w), (z, w + d1), (z, w + d1 + d2)))
        return out

    def test_lower_bound_via_min(self):
        # two mu1-bound links force the outer pair to stay mu0-bound at
        # least as long as the shorter link
        checked = 0
        for x1, x2, x3 in self._triples(60, seed=17):
            b12 = B.binding_time(self.map, x1, x2, self.mu1, horizon=300).binding_time
            b23 = B.binding_time(self.map, x2, x3, self.mu1, horizon=300).binding_time
            b13 = B.binding_time(self.map, x1, x3, self.mu0, horizon=300).binding_time
            if b12 is None or b23 is None or b13 is None:
                continue
            assert b13 >= min(b12, b23)
            checked += 1
        assert checked >= 20

    def test_upper_bound_via_max_fails_in_general(self):
        # a nearly-identical outer pair with a far-away middle point binds
        # far longer than either link; the max of the link times cannot
        # bound the outer time from above
        b13 = B.binding_time(self.map, (0, 0.3), (0, 0.3 + 1e-9), self.mu0, horizon=50)
        b12 = B.binding_time(self.map, (0, 0.3), (0, 0.9), self.mu1, horizon=50)
        b23 = B.binding_time(self.map, (0, 0.9), (0, 0.3 + 1e-9), self.mu1, horizon=50)
        assert b12.binding_time == 0 and b23.binding_time == 0
        assert b13.binding_time is None or b13.binding_time > 0


class TestComparabilityAndMonotonicity:
    def setup_method(self):
        self.map = chebyshev_map()
        self.mu0, self.mu1 = B.mu_constants(2)

    def test_fiber_magnitudes_comparable_while_bound(self):
        pairs = B.sample_bound_pairs(self.map, 200, seed=23)
        for x, y in pairs:
            rec = B.binding_time(self.map, x, y, self.mu0, horizon=300)
            b = rec.binding_time if rec.binding_time is not None else rec.n_last
            for n in range(b):
                ax, ay = abs(rec.xi_x[n]), abs(rec.xi_y[n])
                if ay > 0:
                    assert 0.5 <= ax / ay <= 2.0

    def test_binding_time_monotone_in_mu(self):
        pairs = B.sample_bound_pairs(self.map, 200, seed=29)
        for x, y in pairs:
            b_small = B.binding_time(self.map, x, y, self.mu1, horizon=400).binding_time
            b_large = B.binding_time(self.map, x, y, self.mu0, horizon=400).binding_time
            if b_large is None:
                assert b_small is None
            elif b_small is not None:
                assert b_small <= b_large


class TestBatchAndCsv:
    def setup_method(self):
        self.map = chebyshev_map()
        self.mu0, _ = B.mu_constants(2)

    def test_columns_and_order(self):
        pairs = B.sample_bound_pairs(self.map, 10, seed=3)
        rows = B.audit_pair_batch(self.map, pairs, self.mu0, horizon=200)
        text = B.binding_rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "pair_id,mu,binding_time,censored,W_final,min_margin_lemma23,min_margin_lemma24"
        assert len(lines) == 11
        assert [int(l.split(",")[0]) for l in lines[1:]] == list(range(10))

    def test_seed_changes_pairs(self):
        a = B.sample_bound_pairs(self.map, 50, seed=1)
        b = B.sample_bound_pairs(self.map, 50, seed=2)
        assert a != b
