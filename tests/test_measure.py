"""Monte Carlo measure estimates and the base-derivative comparison.

Scalar raw-Python oracles re-run the classification loops on the same
block-keyed draws, so any disagreement isolates the vectorized dynamics
rather than the sampling plumbing.
"""

import cmath
import itertools
import json
import math

import numpy as np
import pytest
from conftest import assert_bitwise
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc

from skewdyn.core import _Orbits, build_map
from skewdyn.errors import (
    BaseOutsideDomain,
    CriticalHit,
    EmptySample,
    OrbitOverflow,
    OriginPeriodic,
    PreconditionViolated,
    RateTooLarge,
    ZeroBase,
)
from skewdyn.gallery import basilica_map, chebyshev_map, nearfixed_map, siegel_map
from skewdyn.mc import BATCH_SIZE, draw_blocks, uniform_annulus, uniform_disk
from skewdyn.measure import (
    BaseDerivativeReport,
    EstimateReport,
    _fd,
    _indicator_se,
    _max_denominator,
    _recursion,
    decay_cells_csv,
    e_set_area,
    exclusion_area,
    exclusion_rate,
    fiber_base_derivative,
    reports_to_csv,
    slow_approach_stats,
)


def exclusion_fixture():
    # slow expansion near 0 spreads first-failure indices over many l
    return build_map(0.65, 2, [[-1.749, 1.0]])


def oracle_slow_fraction(map, alpha, burn_in, horizon, samples, seed):
    # same draws as the op, scalar dynamics
    def draw(gen, count):
        z = uniform_disk(gen, count, map.r0)
        w = uniform_disk(gen, count, map.escape_radius)
        return np.stack([z, w], axis=1)

    pts = draw_blocks(seed, "slow", samples, draw)
    kept = 0
    good = 0
    for z0, w0 in pts:
        z, w = complex(z0), complex(w0)
        ok = True
        escaped = False
        for n in range(1, horizon + 1):
            w = map.fiber_value(z, w)
            z = z * map.lam
            if abs(w) > map.escape_radius:
                escaped = True
                break
            if n >= burn_in and abs(w) < math.exp(-alpha * n):
                ok = False
        if escaped:
            continue
        kept += 1
        good += ok
    return kept, good / kept


def oracle_first_failures(map, alpha, m, samples, seed, horizon):
    r_outer = abs(map.lam) ** m * map.r0
    r_inner = abs(map.lam) * r_outer

    def draw(gen, count):
        return uniform_annulus(gen, count, r_inner, r_outer)

    z0s = draw_blocks(seed, "exclusion", samples, draw)
    out = []
    for z0 in z0s:
        thr0 = abs(z0) ** (map.k / map.degree)
        z, w = complex(z0), 0.0 + 0.0j
        first = 0
        for l in range(1, horizon + 1):
            w = map.fiber_value(z, w)
            z = z * map.lam
            if abs(w) <= thr0 * math.exp(-alpha * l):
                first = l
                break
            if abs(w) > map.escape_radius:
                break
        out.append(first)
    return out


def ref_slow_one_batch(map, alpha, burn_in, horizon, samples, seed):
    """The sampler as it stepped every start in one pass from step 1 to the
    horizon, testing the threshold from the burn-in on: (kept, hits)."""

    def draw(gen, count):
        z = uniform_disk(gen, count, map.r0)
        w = uniform_disk(gen, count, map.escape_radius)
        return np.stack([z, w], axis=1)

    pts = draw_blocks(seed, "slow", samples, draw)
    orbits = _Orbits(map, pts[:, 0], pts[:, 1], bound=map.escape_radius)
    ok = np.ones(samples, dtype=bool)
    for n in orbits.steps(horizon):
        if n >= burn_in:
            ok[orbits.idx[orbits.absw < math.exp(-alpha * n)]] = False
    return len(orbits.idx), int(np.count_nonzero(ok[orbits.idx]))


def ref_first_fail_counts(map, alpha, m, samples, seed, horizon):
    """exclusion_area's counts per first-failure index (0: never) as it
    stepped every start in one batch."""
    r_outer = abs(map.lam) ** m * map.r0
    r_inner = abs(map.lam) * r_outer
    z0 = draw_blocks(seed, "exclusion", samples,
                     lambda gen, count: uniform_annulus(gen, count, r_inner, r_outer))
    orbits = _Orbits(map, z0, np.zeros(samples, dtype=complex),
                     bound=map.escape_radius,
                     carry={"thr": np.abs(z0) ** (map.k / map.degree)})
    first_fail = np.zeros(samples, dtype=np.int64)
    for l in orbits.steps(horizon):
        fail = orbits.absw <= orbits.carry["thr"] * math.exp(-alpha * l)
        first_fail[orbits.idx[fail]] = l
        orbits.retire(fail)
    return np.bincount(first_fail, minlength=horizon + 1)


def ref_e_set_one_batch(map, z, alpha, grid, samples, seed):
    """e_set_area's fraction per grid n as it stepped every draw in one batch."""
    w = draw_blocks(seed, "eset", samples,
                    lambda gen, count: uniform_disk(gen, count, map.escape_radius))
    orbits = _Orbits(map, np.array([complex(z)]), w, bound=map.escape_radius)
    fractions = dict.fromkeys(grid, 0.0)
    if grid[0] == 0:
        fractions[0] = float(np.mean(orbits.absw < 1.0))
    for n in orbits.steps(grid[-1]):
        if n in fractions:
            hit = np.count_nonzero(orbits.absw < math.exp(-alpha * n))
            fractions[n] = hit / samples
    return [fractions[n] for n in grid]


BATCH_COUNTS = [BATCH_SIZE - 1, BATCH_SIZE, BATCH_SIZE + 1, 2 * BATCH_SIZE + 37]


class TestSlowApproach:
    def test_nearfixed_fraction_at_scale(self):
        rep = slow_approach_stats(nearfixed_map(0.5), 0.05, 50, 500, 10_000, seed=11)
        assert rep.quantity == "slow_fraction"
        assert rep.estimate >= 0.99
        assert rep.samples > 1000  # plenty of non-escaping mass retained
        assert 0.0 <= rep.std_error < 0.01

    def test_huge_alpha_gives_one(self):
        # threshold e^(-10 n) is below any attained orbit scale
        rep = slow_approach_stats(nearfixed_map(0.5), 10.0, 10, 100, 2000, seed=3)
        assert rep.estimate == 1.0

    def test_matches_scalar_oracle(self):
        map = nearfixed_map(0.5)
        rep = slow_approach_stats(map, 0.05, 10, 60, 500, seed=29)
        kept, frac = oracle_slow_fraction(map, 0.05, 10, 60, 500, 29)
        assert rep.samples == kept
        assert rep.estimate == pytest.approx(frac, abs=1e-15)

    @pytest.mark.parametrize("samples", [1000, 32768, 70001])
    def test_batches_match_one_batch(self, samples):
        # kept and hit counts summed over draw batches and survivor pools
        # give the fraction of one batch; the Siegel fraction lies strictly
        # inside (0, 1)
        map = siegel_map(0.5)
        rep = slow_approach_stats(map, 0.05, 50, 100, samples, seed=6)
        kept, hits = ref_slow_one_batch(map, 0.05, 50, 100, samples, 6)
        frac = hits / kept
        assert 0.0 < frac < 1.0
        assert (rep.samples, rep.estimate) == (kept, frac)
        assert rep.std_error == _indicator_se(frac * kept, kept)

    @pytest.mark.parametrize("make", [siegel_map, nearfixed_map])
    @pytest.mark.parametrize("burn_in", [0, 1, 2, 50])
    @pytest.mark.parametrize("samples", [1, 1000, BATCH_SIZE + 1, 2 * BATCH_SIZE + 37])
    def test_two_phases_match_one_pass(self, make, burn_in, samples):
        # the burn-in steps per draw batch and the pooled tail count the
        # same orbits as one pass; the threshold's first test is at step
        # max(burn_in, 1), so burn-ins 0 and 1 run no burn-in steps.  At
        # alpha 0.5 the test at the burn-in is the one that fails most
        # orbits for the small burn-ins; at 0.05 a few fail after step 50
        map = make(0.5)
        for seed, alpha in itertools.product((2, 9), (0.05, 0.5)):
            kept, hits = ref_slow_one_batch(map, alpha, burn_in, 80, samples, seed)
            if kept == 0:
                with pytest.raises(EmptySample):
                    slow_approach_stats(map, alpha, burn_in, 80, samples, seed)
                continue
            rep = slow_approach_stats(map, alpha, burn_in, 80, samples, seed)
            assert (rep.samples, rep.estimate) == (kept, hits / kept)

    @pytest.mark.parametrize("burn_in", [0, 1, 2, 50])
    def test_every_start_escaping_is_empty_sample(self, burn_in):
        # c = 2: every start escapes, in the burn-in or in the tail
        map = build_map(0.5, 2, [[2.0, 1.0]])
        assert ref_slow_one_batch(map, 0.05, burn_in, 80, BATCH_SIZE + 1, 4)[0] == 0
        with pytest.raises(EmptySample):
            slow_approach_stats(map, 0.05, burn_in, 80, BATCH_SIZE + 1, seed=4)

    def test_memory_at_benchmark_size(self, peak_mib):
        # one batch of 100k starts peaked at 9.3 MiB under tracemalloc,
        # batches of 2^15 at 3.2 MiB, and draw batches with pooled
        # survivors at 1.1 MiB
        map = nearfixed_map(0.5)
        assert peak_mib(lambda: slow_approach_stats(map, 0.05, 50, 500, 100_000, seed=3)) < 6.0

    def test_fraction_nondecreasing_in_alpha(self):
        fracs = [slow_approach_stats(nearfixed_map(0.5), a, 20, 200, 3000, seed=4).estimate
                 for a in (0.01, 0.05, 0.2)]
        assert fracs == sorted(fracs)
        assert fracs[0] < fracs[-1]

    def test_fraction_nonincreasing_in_horizon(self):
        fracs = [slow_approach_stats(siegel_map(0.5), 0.05, 50, h, 3000, seed=4).estimate
                 for h in (100, 200, 400)]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))
        assert 0.0 < fracs[0] < 1.0

    def test_basilica_raises_origin_periodic(self):
        with pytest.raises(OriginPeriodic):
            slow_approach_stats(basilica_map(0.5), 0.05, 50, 500, 100, seed=1)

    def test_zero_samples_raise(self):
        with pytest.raises(EmptySample):
            slow_approach_stats(nearfixed_map(0.5), 0.05, 50, 500, 0, seed=1)

    def test_chebyshev_full_escape_raises(self):
        # the non-escaping set over a measure-zero Julia interval has area 0
        with pytest.raises(EmptySample):
            slow_approach_stats(chebyshev_map(0.5), 0.05, 10, 200, 500, seed=2)

    def test_parameter_gates(self):
        m = nearfixed_map(0.5)
        with pytest.raises(PreconditionViolated):
            slow_approach_stats(m, 0.0, 10, 100, 10, seed=1)
        with pytest.raises(PreconditionViolated):
            slow_approach_stats(m, 0.1, 100, 100, 10, seed=1)

    def test_report_json(self):
        rep = slow_approach_stats(nearfixed_map(0.5), 0.05, 10, 50, 200, seed=5)
        js = rep.to_json()
        assert sorted(js.keys()) == [
            "estimate", "fitted_exponent", "parameters", "quantity",
            "samples", "seed", "std_error",
        ]
        json.dumps(js)


class TestESetArea:
    def test_n_zero_closed_form(self):
        # E_0 is the unit disk; its fraction of B(0, R) is 1/R^2
        m = chebyshev_map(0.5)
        rep = e_set_area(m, 0.0, 0.3, 0, 50_000, seed=5)[0]
        exact = 1.0 / m.escape_radius**2
        assert abs(rep.estimate - exact) <= 4.0 * rep.std_error + 1e-6

    def test_siegel_decay_fit(self):
        reps = e_set_area(siegel_map(0.5), 0.01, 0.05, range(20, 201, 20),
                          100_000, seed=7)
        fit = reps[-1]
        assert fit.quantity == "decay_fit"
        assert fit.fitted_exponent is not None and fit.fitted_exponent > 0
        assert fit.parameters["r_squared"] >= 0.9
        fracs = {r.parameters["n"]: r.estimate for r in reps[:-1]}
        assert fracs[20] > fracs[60] > 0  # visible decay on populated cells

    def test_chebyshev_cells_are_empty(self):
        # hyperbolic expansion pushes the sublevel mass below any feasible
        # sample size; the honest result is all-zero cells and no fit
        reps = e_set_area(chebyshev_map(0.5), 0.01, 0.1, [20, 40], 100_000, seed=9)
        assert all(r.estimate == 0.0 for r in reps[:-1])
        assert reps[-1].fitted_exponent is None
        assert reps[-1].parameters["r_squared"] is None

    def test_zero_alpha_no_decay(self):
        reps = e_set_area(siegel_map(0.5), 0.01, 0.0, [40, 120, 200], 30_000, seed=13)
        fracs = [r.estimate for r in reps[:-1]]
        assert all(f > 0.01 for f in fracs)
        assert max(fracs) < 1.5 * min(fracs)

    def test_matches_scalar_oracle(self):
        map = siegel_map(0.5)
        samples, seed, n_target = 400, 31, 25
        rep = e_set_area(map, 0.01, 0.05, n_target, samples, seed)[0]

        def draw(gen, count):
            return uniform_disk(gen, count, map.escape_radius)

        ws = draw_blocks(seed, "eset", samples, draw)
        hits = 0
        for w0 in ws:
            z, w = 0.01 + 0.0j, complex(w0)
            escaped = False
            for _ in range(n_target):
                w = map.fiber_value(z, w)
                z = z * map.lam
                if abs(w) > map.escape_radius:
                    escaped = True
                    break
            hits += (not escaped) and abs(w) < math.exp(-0.05 * n_target)
        assert rep.estimate == pytest.approx(hits / samples, abs=1e-15)

    def test_fractions_are_area_fractions(self):
        reps = e_set_area(siegel_map(0.5), 0.0, 0.05, [5, 10], 2000, seed=2)
        for r in reps[:-1]:
            assert 0.0 <= r.estimate <= 1.0

    @pytest.mark.parametrize("samples", BATCH_COUNTS)
    def test_batches_match_one_batch(self, samples):
        # hit counts summed over batches of mc.BATCH_SIZE draws give the
        # fractions of one batch bit for bit, the n = 0 cell included
        map, grid = siegel_map(0.5), [0, 1, 5, 20, 60, 120]
        reps = e_set_area(map, 0.01, 0.02, grid, samples, seed=8)
        want = ref_e_set_one_batch(map, 0.01, 0.02, grid, samples, 8)
        assert all(0.0 < f < 1.0 for f in want)
        assert_bitwise([r.estimate for r in reps[:-1]], want)

    def test_gates(self):
        m = chebyshev_map(0.5)
        with pytest.raises(BaseOutsideDomain):
            e_set_area(m, m.r0 * 1.1, 0.1, 10, 100, seed=1)
        with pytest.raises(EmptySample):
            e_set_area(m, 0.0, 0.1, 10, 0, seed=1)
        with pytest.raises(PreconditionViolated):
            e_set_area(m, 0.0, -0.1, 10, 100, seed=1)
        with pytest.raises(PreconditionViolated):
            e_set_area(m, 0.0, 0.1, [], 100, seed=1)


class TestExclusionArea:
    def test_rate_hypothesis_value(self):
        assert exclusion_rate(exclusion_fixture(), 0.1) == pytest.approx(
            math.exp(0.2) * 0.65, rel=1e-12)

    def test_decay_fit_at_scale(self):
        reps = exclusion_area(exclusion_fixture(), 0.1, 8, range(12, 79, 3),
                              100_000, seed=21)
        fit = reps[-1]
        assert fit.fitted_exponent is not None and fit.fitted_exponent > 0
        assert fit.parameters["r_squared"] >= 0.8
        assert fit.parameters["nonzero_cells"] >= 5

    def test_failures_follow_critical_orbit_phase(self):
        # c = -1.749 puts the critical orbit near a period-3 cycle whose
        # small member is revisited every third step, so first failures
        # land on l = 0 mod 3 and the off-phase cells stay empty
        reps = exclusion_area(exclusion_fixture(), 0.1, 8, list(range(1, 13)),
                              20_000, seed=6)
        fracs = {r.parameters["l"]: r.estimate for r in reps[:-1]}
        assert all(fracs[l] == 0.0 for l in range(1, 13) if l % 3 != 0)
        assert fracs[3] > 0.1
        assert fracs[3] > fracs[6] > fracs[9] > 0

    def test_partition_with_never_failing(self):
        reps = exclusion_area(exclusion_fixture(), 0.1, 8, list(range(1, 121)),
                              20_000, seed=17, horizon=120)
        total = sum(r.estimate for r in reps[:-1])
        never = reps[-1].parameters["never_failing_fraction"]
        assert total + never == pytest.approx(1.0, abs=1e-12)

    def test_matches_scalar_oracle(self):
        map = exclusion_fixture()
        firsts = oracle_first_failures(map, 0.1, 8, 300, 41, horizon=100)
        reps = exclusion_area(map, 0.1, 8, list(range(1, 101)), 300, seed=41,
                              horizon=100)
        fracs = {r.parameters["l"]: r.estimate for r in reps[:-1]}
        for l in range(1, 101):
            expect = sum(1 for f in firsts if f == l) / 300
            assert fracs[l] == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("samples", BATCH_COUNTS)
    def test_batches_match_one_batch(self, samples):
        # first-failure counts summed over batches of mc.BATCH_SIZE starts
        # give every cell and the never-failing fraction of one batch
        map, horizon = exclusion_fixture(), 120
        counts = ref_first_fail_counts(map, 0.1, 8, samples, 4, horizon)
        reps = exclusion_area(map, 0.1, 8, range(1, horizon + 1), samples, seed=4,
                              horizon=horizon)
        assert 0 < counts[0] < samples and np.count_nonzero(counts[1:]) > 5
        assert_bitwise([r.estimate for r in reps[:-1]], counts[1:] / samples)
        assert_bitwise(reps[-1].parameters["never_failing_fraction"],
                       counts[0] / samples)

    def test_rate_too_large_raises(self):
        with pytest.raises(RateTooLarge):
            exclusion_area(build_map(0.9, 2, [[-2.0, 1.0]]), 0.1, 2, [5], 100, seed=1)

    def test_gates(self):
        m = exclusion_fixture()
        with pytest.raises(PreconditionViolated):
            exclusion_area(m, 0.1, -1, [5], 100, seed=1)
        with pytest.raises(PreconditionViolated):
            exclusion_area(m, 0.1, 2, [50], 100, seed=1, horizon=40)
        with pytest.raises(EmptySample):
            exclusion_area(m, 0.1, 2, [5], 0, seed=1)


# BaseDerivativeReport fields after (z0, l, k), recorded when doubles and
# mpmath each had their own copy of the recursion and the difference
XL_MAPS = {"cheb": chebyshev_map(0.5), "k2": build_map(0.5, 2, [[-2.0, 0.0, 1.0]])}
XL_RECORDED = {
    ('cheb', 0.001, 1): ((1+0j), (1+0j), (1+0j), (0.8571428571428572+0j), (0.8571428571428572+0j), 0.1428571428571428, 0.4285714285714286, True, (1+0j), 0.0, (0.9999778782798783+0j), 2.2121720121726085e-05, 1.0000000000000002e-12, 0),
    ('cheb', 0.001, 8): ((2133.3768142506983+0j), (2489.316580820541-0j), (0.8570130575949019+0j), (0.8571428571428572+0j), (0.8571428571428572+0j), 0.00012979954795533377, 0.4285714285714286, True, (0.8570130575949019+0j), 0.0, (2133.298870887756+0j), 3.653520673030011e-05, 1.0000000000000002e-12, 0),
    ('cheb', 0.001, 9): ((-7015.300023956306+0j), (-8185.7608446408785+0j), (0.8570125803943003-0j), (0.8571428571428572+0j), (0.8571428571428572+0j), 0.0001302767485569234, 0.4285714285714286, True, (0.8570125803943003+0j), 0.0, (-7015.300023956306+0j), 0.0, 1.0000000000000002e-12, 60),
    ('cheb', 0.001, 60): ((-1.6675257559033188e+19+0j), (-1.945742717926924e+19+0j), (0.8570124613802851-0j), (0.8571428571428572+0j), (0.8571428571428572+0j), 0.00013039576257212193, 0.4285714285714286, True, (0.8570124613802851+0j), 0.0, (-1.6675257559032664e+19+0j), 3.144107358725544e-14, 5.1394256331353104e-26, 60),
    ('cheb', 0.001, 1000): ((-1.4066343793034246e+302+0j), (-1.641323134366017e+302+0j), (0.8570124613802851-0j), (0.8571428571428572+0j), (0.8571428571428572+0j), 0.00013039576257212193, 0.4285714285714286, True, (0.8570124613802851+0j), 0.0, (-1.4066343778618386e+302+0j), 1.0248477251418128e-09, 1e-306, 328),
    ('cheb', (0.001+0.0005j), 1): ((1+0j), (1+0j), (1+0j), (0.8571428571428572+0j), (0.8571428571428572+0j), 0.1428571428571428, 0.4285714285714286, True, (1+0j), 0.0, (1.0000640582941314+0j), 6.405829413136388e-05, 1.118033988749895e-12, 0),
    ('cheb', (0.001+0.0005j), 8): ((3903.909023223871+1941.7667945927694j), (4555.071981536096+2266.1052567773468j), (0.8570123795524832-6.881643926728804e-05j), (0.8571428571428572+0j), (0.8571428571428572+0j), 0.00014751306350025743, 0.4285714285714286, True, (0.8570123795524831-6.881643926726074e-05j), 1.334070843856474e-16, (3904.270341058979+1941.9466517618305j), 9.256725364578495e-05, 1.118033988749895e-12, 0),
    ('cheb', (0.001+0.0005j), 9): ((-22327.88857185955+2188.2914056825202j), (-26053.378670418853+2551.3032916435723j), (0.8570122310440361-6.883098210618402e-05j), (0.8571428571428572+0j), (0.8571428571428572+0j), 0.00014765121669298119, 0.4285714285714286, True, (0.857012231044036-6.883098210620065e-05j), 1.3099082503657535e-16, (-22327.88857185955+2188.2914056825202j), 0.0, 1.118033988749895e-12, 60),
    ('k2', 0.01, 1): ((0.02+0j), (1+0j), (0.02+0j), (0.9333333333333333+0j), (0.018666666666666668+0j), 0.0013333333333333322, 0.009333333333333334, True, (0.02+0j), 0.0, (0.020006218903745317+0j), 0.00031094518726584863, 1.0000000000000001e-11, 0),
    ('k2', 0.01, 8): ((-233.63743635631815+0j), (-12516.349897591608+0j), (0.01866657917587256-0j), (0.9333333333333333+0j), (0.018666666666666668+0j), 8.749079410952376e-08, 0.009333333333333334, True, (0.01866657917587256+0j), 0.0, (-233.73880608801298+0j), 0.00043387623694103974, 1.0000000000000001e-11, 0),
    ('k2', 0.01, 9): ((-306.54219338653763+0j), (-16421.980203417977+0j), (0.018666579157289184-0j), (0.9333333333333333+0j), (0.018666666666666668+0j), 8.750937748394638e-08, 0.009333333333333334, True, (0.018666579157289188+0j), 1.858641009002882e-16, (-306.54219338653763+0j), 0.0, 1.0000000000000001e-11, 60),
    ('k2', 0.01, 60): ((-1.1113790428607804e+18+0j), (-5.953844212086056e+19+0j), (0.018666579159137674-0j), (0.9333333333333333+0j), (0.018666666666666668+0j), 8.75075289938354e-08, 0.009333333333333334, True, (0.018666579159137674+0j), 0.0, (-1.1113790428607788e+18+0j), 1.4972389579316955e-15, 1.6795871110803366e-25, 60),
    ('k2', 0.01, 1000): ((-9.243685662082784e+300+0j), (-4.951997676316504e+302+0j), (0.018666579159137674-0j), (0.9333333333333333+0j), (0.018666666666666668+0j), 8.75075289938354e-08, 0.009333333333333334, True, (0.018666579159137674+0j), 0.0, (-9.243685657955483e+300+0j), 4.4649950599077954e-10, 1e-305, 328),
    ('k2', (0.01-0.004j), 1): ((0.02-0.008j), (1+0j), (0.02-0.008j), (0.9333333333333333+0j), (0.018666666666666668-0.007466666666666667j), 0.0014360439485692, 0.010052307639984407, True, (0.02-0.008j), 0.0, (0.01999783428094263-0.007999999436920062j), 0.00010054098658695315, 1.0770329614269008e-11, 0),
    ('k2', (0.01-0.004j), 8): ((-262.8065557672716+41.784726144023885j), (-12908.949382658006-2925.050666957361j), (0.018666621198657984-0.00746656726847841j), (0.9333333333333333+0j), (0.018666666666666668-0.007466666666666667j), 1.0930388667576488e-07, 0.010052307639984407, True, (0.01866662119865798-0.007466567268478413j), 2.157129444765562e-16, (-262.72853679972013+41.80240588611542j), 0.0003006193050159297, 1.0770329614269008e-11, 0),
    ('k2', (0.01-0.004j), 9): ((-469.1879521879903-449.8203926068166j), (-13358.835820830063-29441.05593191356j), (0.018666621198195968-0.007466567258322399j), (0.9333333333333333+0j), (0.018666666666666668-0.007466666666666667j), 1.0931331454937443e-07, 0.010052307639984407, True, (0.018666621198195964-0.007466567258322398j), 1.929395230308011e-16, (-469.1879521879903-449.8203926068166j), 0.0, 1.0770329614269008e-11, 60),
}


class TestFiberBaseDerivative:
    def test_single_step_is_coefficient_derivative(self):
        rep = fiber_base_derivative(chebyshev_map(0.5), 0.003, 1)
        assert rep.x_l == 1.0  # c'(z) is identically 1 for c(z) = -2 + z
        assert rep.ratio == rep.x_l  # empty derivative product
        assert rep.fd_dps == 0

    def test_deep_grid_against_bound_and_difference(self):
        m = chebyshev_map(0.5)
        for z0 in np.geomspace(1e-4, 1e-2, 10):
            rep = fiber_base_derivative(m, float(z0), 40)
            assert rep.within_bound
            assert rep.deviation <= 0.01 * rep.bound  # far inside the half-margin
            assert rep.fd_rel_deviation <= 1e-5
            assert rep.recursion_vs_sum_rel <= 1e-10

    def test_target_uses_leading_term(self):
        m = chebyshev_map(0.5)
        rep = fiber_base_derivative(m, 0.002, 100)
        assert rep.target == pytest.approx(6.0 / 7.0, rel=1e-10)
        assert rep.recursion_vs_sum_rel <= 1e-10
        assert rep.within_bound

    def test_doubled_base_power_target(self):
        k2 = build_map(0.5, 2, [[-2.0, 0.0, 1.0]])
        rep = fiber_base_derivative(k2, 0.004, 30)
        assert rep.k == 2
        assert rep.target == pytest.approx(2.0 * (14.0 / 15.0) * 0.004, rel=1e-10)
        assert rep.within_bound
        assert rep.fd_rel_deviation <= 1e-10

    def test_double_precision_regime(self):
        m = chebyshev_map(0.5)
        rep = fiber_base_derivative(m, 0.005, 8)
        assert rep.fd_dps == 0
        assert rep.fd_step == pytest.approx(1e-9 * 0.005, rel=1e-12)
        # cancellation noise at the fixed step caps the attainable agreement
        assert rep.fd_rel_deviation <= 1e-4
        deep = fiber_base_derivative(m, 0.005, 9)
        assert deep.fd_dps >= 60

    def test_critical_passage_raises(self):
        # xi_1 = c0(0) + z0 = 0 exactly; the critical orbit of w^2 + 0.3
        # escapes, so no attracting cycle stops the run first
        m = build_map(0.5, 2, [[0.3, 1.0]])
        with pytest.raises(CriticalHit) as exc:
            fiber_base_derivative(m, -0.3, 3)
        assert exc.value.index == 1

    def test_double_overflow_names_the_step(self):
        # the fiber orbit of (z0, 0) escapes fast enough that doubles
        # overflow within l = 8 steps, where the mpmath regime does not run
        m = build_map(0.6 - 0.1j, 3, [[1.2j, 1.0, 0.3j]])
        with pytest.raises(OrbitOverflow, match=r"at step \d"):
            fiber_base_derivative(m, -0.17517 + 0.46736j, 8)

    def test_gates(self):
        m = chebyshev_map(0.5)
        with pytest.raises(ZeroBase):
            fiber_base_derivative(m, 0.0, 5)
        with pytest.raises(BaseOutsideDomain):
            fiber_base_derivative(m, m.r0 * 2, 5)
        with pytest.raises(PreconditionViolated):
            fiber_base_derivative(m, 0.01, 0)
        gen = build_map(0.5, 2, [[-2.0, 1.0], [0.0]], mode="general")
        with pytest.raises(PreconditionViolated):
            fiber_base_derivative(gen, 0.01, 5)

    def test_json(self):
        rep = fiber_base_derivative(chebyshev_map(0.5), 0.003, 12)
        js = rep.to_json()
        assert js["l"] == 12 and js["k"] == 1
        assert js["within_bound"] is True
        json.dumps(js)

    @pytest.mark.parametrize("key", sorted(XL_RECORDED, key=repr), ids=repr)
    def test_reports_exact(self, key):
        name, z0, l = key
        rep = fiber_base_derivative(XL_MAPS[name], z0, l)
        expected = BaseDerivativeReport(complex(z0), l, XL_MAPS[name].k,
                                         *XL_RECORDED[key])
        assert rep == expected


# maps whose fiber orbit of 0 stays bounded, so eight steps cannot overflow
AGREEMENT_MAPS = [
    chebyshev_map(0.5),
    build_map(0.5, 2, [[-2.0, 0.0, 1.0]]),
    build_map(0.4 + 0.3j, 2, [[1j, 1.0, 0.3]]),
    build_map(0.6 - 0.1j, 3, [[0.3j, 1.0, 0.3j]]),
]
EPS = 2.0**-52


@pytest.mark.parametrize("map", AGREEMENT_MAPS, ids=["cheb", "k2", "misiurewicz", "cubic"])
@settings(max_examples=80)
@given(radius=st.floats(1e-3, 0.999), turn=st.floats(0.0, 1.0), l=st.integers(1, 8))
def test_recursion_and_difference_agree_across_number_types(map, radius, turn, l):
    # doubles against mpmath at 60 digits; the worst deviation seen on
    # these draws was 1.2e-12 relative for the recursion and 0.49 of the
    # difference quotient's rounding scale eps * max_denom * R / h
    z0 = complex(radius * map.r0 * cmath.exp(2j * math.pi * turn))
    h = 1e-9 * abs(z0)
    doubles = _recursion(map, z0, l, complex)
    fd = _fd(map, z0, l, h, complex)
    with mp.workdps(60):
        extended = _recursion(map, z0, l, mpc)
        max_denom = _max_denominator(map, z0, l, mpc)
        fd_mp = _fd(map, z0, l, h, mpc)
    for got, ref in zip(doubles, extended):
        assert abs(got - complex(ref)) <= 1e-9 * abs(complex(ref))
    scale = EPS * float(max_denom) * map.escape_radius / h
    assert abs(fd - fd_mp) <= 4.0 * scale


class TestSerialization:
    def test_csv_shape_and_determinism(self):
        reps = exclusion_area(exclusion_fixture(), 0.1, 8, [12, 15], 5000, seed=3)
        text = reports_to_csv(reps)
        lines = text.splitlines()
        assert lines[0] == "quantity,samples,estimate,std_error,fitted_exponent,seed,parameters"
        assert len(lines) == len(reps) + 1
        assert text == reports_to_csv(reps)
        # decay_fit row with no fit leaves the exponent cell blank
        empty = e_set_area(chebyshev_map(0.5), 0.01, 0.1, [20], 1000, seed=1)
        row = reports_to_csv(empty).splitlines()[-1]
        assert row.split(",")[4] == ""

    def test_decay_cells_csv(self):
        reps = exclusion_area(exclusion_fixture(), 0.1, 8, range(12, 40, 3),
                              20_000, seed=21)
        text = decay_cells_csv(reps)
        lines = text.splitlines()
        assert lines[0] == "l,log_fraction"
        assert len(lines) > 2
        for line in lines[1:]:
            l, lf = line.split(",")
            assert float(lf) < 0.0

    def test_std_error_is_indicator_formula(self):
        rep = slow_approach_stats(nearfixed_map(0.5), 0.02, 20, 150, 4000, seed=8)
        p, n = rep.estimate, rep.samples
        assert rep.std_error == pytest.approx(math.sqrt(p * (1 - p) / (n - 1)), rel=1e-12)

    def test_estimate_report_equality(self):
        a = EstimateReport("K_area", {"l": 1}, 10, 0.5, 0.1, None, 7)
        b = EstimateReport("K_area", {"l": 1}, 10, 0.5, 0.1, None, 7)
        assert a == b
