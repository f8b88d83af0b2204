"""The compacted orbit-stepping kernel and the callers built on it.

Two kinds of check.  A differential test drives the vector kernel
(core._Orbits with factors, its log |factor| summed per orbit) and the
scalar path (core.iterate) from the same random starts and requires equal
lengths and escape steps and tightly agreeing values.  Exactness tests pin
every caller of the kernel to the outputs the masked full-length loops
produced before it existed; those values are compared with ==, because
stepping only the live orbits changes no per-element arithmetic.  Complex multipliers and nonzero base points
appear on purpose: numpy's complex products are not bitwise commutative,
so they catch a change in the order of lam * z.  A third check steps a
shared base orbit (a z of length 1) beside one z per orbit and requires
every array to agree byte for byte at every step.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_bitwise, iterate_block
from skewdyn import bounds as BD
from skewdyn.core import _Orbits, build_map, iterate
from skewdyn.errors import EmptySample
from skewdyn.fatou import SliceSpec, classify_point, render_slice
from skewdyn.gallery import basilica_map, chebyshev_map, nearfixed_map, siegel_map
from skewdyn.measure import e_set_area, exclusion_area, slow_approach_stats

LAM = 0.4 + 0.3j


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# differential test: the vector kernel against the scalar orbit


UNICRITICAL = build_map(0.5 + 0.2j, 2, [[-1.3 + 0.1j, 1.0, 0.3]])
GENERAL = build_map(0.6, 3, [[0.2 + 0.1j, 1.0], [-0.5, 0.4j], [0.3]], mode="general")


def _polar(radius):
    return st.builds(lambda r, t: radius * r * np.exp(2j * np.pi * t),
                     st.floats(0.0, 1.0), st.floats(0.0, 1.0))


@pytest.mark.parametrize("map", [UNICRITICAL, GENERAL], ids=["unicritical", "general3"])
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_block_agrees_with_scalar_iterate(map, data):
    count = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(0, 12))
    z0s = [data.draw(_polar(0.999 * map.r0)) for _ in range(count)]
    w0s = [data.draw(_polar(1.2 * map.escape_radius)) for _ in range(count)]
    # the kernel's rows per orbit, cut at the escape radius as iterate cuts
    rows = [([z], [w], [0.0]) for z, w in zip(z0s, w0s)]
    orbits = _Orbits(map, z0s, w0s, factors=True, carry={"logd": np.zeros(count)})
    orbits.retire(orbits.absw > map.escape_radius)
    with np.errstate(divide="ignore"):
        for _ in orbits.steps(n):
            logd = orbits.carry["logd"] = (orbits.carry["logd"]
                                           + np.log(np.abs(orbits.factor)))
            for j, z, w, l in zip(orbits.idx, orbits.z, orbits.w, logd):
                for col, v in zip(rows[j], (z, w, l)):
                    col.append(v)
            orbits.retire(orbits.absw > map.escape_radius)
    for j, (zs, ws, logs) in enumerate(rows):
        ref = iterate(map, (z0s[j], w0s[j]), n)
        assert len(ws) == len(ref)
        escaped = abs(ws[-1]) > map.escape_radius
        assert (len(ws) - 1 if escaped else None) == ref.escape_step
        np.testing.assert_allclose(zs, ref.zs, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(ws, ref.ws, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(logs, ref.log_vder, rtol=1e-9, atol=1e-9)
        tame = np.abs(zs) ** map.k <= np.abs(ws) ** map.degree
        assert np.array_equal(tame, ref.tame_flags)


# ---------------------------------------------------------------------------
# a shared base orbit against one z per orbit


SHARED_MAPS = {
    "chebyshev": chebyshev_map(),
    "complex_quadratic": build_map(LAM, 2, [[-0.8 + 0.2j, 1.0, 0.5 - 0.3j]]),
    "cubic": build_map(0.5, 3, [[0.3j, 1.0]]),
    "general3": GENERAL,
}


def _shared_starts(m, count=1025):
    # an odd count runs numpy's SIMD tails; the radius reaches past escape,
    # so with bound None orbits overflow to inf and NaN
    rng = np.random.default_rng(17)
    w = 1.3 * m.escape_radius * np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))
    w[:4] = [0.0, complex(-0.0, -0.0), 1e200, complex(np.nan, 0.0)]
    return w


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bounded", [False, True], ids=["bound_none", "bound_radius"])
@pytest.mark.parametrize("name", sorted(SHARED_MAPS))
def test_shared_base_steps_bitwise(name, bounded):
    m = SHARED_MAPS[name]
    w = _shared_starts(m)
    bound = m.escape_radius if bounded else None
    for at in (0j, complex(-0.0, -0.0), 1e-3 + 2e-4j, -0.05j, 0.9 * m.r0):
        for lam_left in (False, True):
            carry = {"tag": np.arange(len(w))}
            shared = _Orbits(m, np.array([at]), w, bound=bound, factors=True,
                             lam_left=lam_left, carry=dict(carry))
            full = _Orbits(m, np.full(len(w), at), w, bound=bound, factors=True,
                           lam_left=lam_left, carry=dict(carry))
            shared_steps, full_steps = shared.steps(120), full.steps(120)
            for n in full_steps:
                assert next(shared_steps) == n
                where = f"{name} at={at!r} lam_left={lam_left} n={n}"
                assert_bitwise(shared.idx, full.idx, where)
                assert_bitwise(shared.w, full.w, where)
                assert_bitwise(shared.absw, full.absw, where)
                assert_bitwise(shared.factor, full.factor, where)
                assert shared.z.shape == (1,)
                assert_bitwise(np.broadcast_to(shared.z, full.z.shape), full.z, where)
                assert_bitwise(shared.carry["tag"], full.carry["tag"], where)
            assert next(shared_steps, None) is None
            if bounded:
                assert len(full.idx) < len(w)


# ---------------------------------------------------------------------------
# in-place steps against the out-of-place expressions


IN_PLACE_MAPS = {
    "uni2": build_map(LAM, 2, [[-0.8 + 0.2j, 1.0, 0.5 - 0.3j]]),
    "uni3": build_map(0.5, 3, [[0.3j, 1.0]]),
    "uni4": build_map(0.6 - 0.2j, 4, [[-0.4 + 0.1j, 0.0, 1.0]]),
    "uni5": build_map(0.5, 5, [[0.2 - 0.1j, 1.0, -0.3j]]),
    "general2": build_map(0.5, 2, [[-0.7, 1.0], [0.2j, -0.3]], mode="general"),
    "general3": GENERAL,
    "general4": build_map(LAM, 4, [[0.2 + 0.1j, 1.0], [-0.5, 0.4j], [0.3], [0.1j, -0.2]],
                          mode="general"),
    "general5": build_map(0.7, 5, [[0.1, 1.0], [0.0], [-0.3 + 0.2j], [0.0], [0.25, 0.5j]],
                          mode="general"),
}


def _edge_starts(m, count=1025):
    """Random starts out to past the escape radius, then signed zeros, NaN,
    inf and values whose powers sit at or past the double range."""
    w = _shared_starts(m, count)
    big = 1e308 ** (1.0 / m.degree)
    w[4:18] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(np.inf, 0.0),
               complex(-np.inf, np.nan), complex(np.nan, np.nan), complex(0.0, np.inf),
               big, complex(0.0, -big), complex(big, big), 1.7e308, complex(-0.0, 1e-200),
               1e-310 + 1e-310j, complex(5e-324, -0.0), -1.0]
    return w


def _stepped_out_of_place(m, z, w, count, bound, lam_left):
    """The kernel's steps as plain expressions, each allocating its result:
    (idx, z, w, |w|) after every step."""
    idx = np.arange(len(w))
    for _ in range(count):
        if not len(idx):
            return
        w = m(w) if z is None else m.fiber_value(z, w)
        if z is not None:
            z = m.lam * z if lam_left else z * m.lam
        absw = np.abs(w)
        if bound is not None:
            keep = absw <= bound
            idx, w, absw = idx[keep], w[keep], absw[keep]
            if z is not None and len(z) > 1:
                z = z[keep]
        yield idx, z, w, absw


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bounded", [False, True], ids=["bound_none", "bound_radius"])
@pytest.mark.parametrize("base", ["shared", "per_orbit", "fiber"])
@pytest.mark.parametrize("name", sorted(IN_PLACE_MAPS))
def test_in_place_steps_bitwise(name, base, bounded):
    m = IN_PLACE_MAPS[name]
    w = _edge_starts(m)
    w_before = w.copy()
    at = complex(-0.0, 0.3 * m.r0)
    z = {"shared": np.array([at]),
         "per_orbit": np.full(len(w), at) * np.exp(1j * np.linspace(0, 6, len(w))),
         "fiber": None}[base]
    stepper = m.f0() if z is None else m
    bound = m.escape_radius if bounded else None
    for lam_left in (False, True):
        orbits = _Orbits(stepper, z, w, bound=bound, lam_left=lam_left)
        ref = _stepped_out_of_place(stepper, z, w, 60, bound, lam_left)
        for n, (idx, zn, wn, absw) in zip(orbits.steps(60), ref):
            where = f"{name} {base} lam_left={lam_left} n={n}"
            assert_bitwise(orbits.idx, idx, where)
            assert_bitwise(orbits.w, wn, where)
            assert_bitwise(orbits.absw, absw, where)
            if zn is not None:
                assert_bitwise(orbits.z, zn, where)
        assert next(ref, None) is None
        # the kernel steps its own copy of the starts
        assert_bitwise(w, w_before, name)


def test_out_arguments_take_the_operator_ufuncs():
    # numpy evaluates w**2 as np.square, which rounds apart from
    # np.power(w, 2) on some hosts; fiber_value's out path relies on it
    rng = np.random.default_rng(5)
    w = 3.0 * (rng.standard_normal(4097) + 1j * rng.standard_normal(4097))
    w[:5] = [complex(-0.0, 0.0), complex(np.inf, -0.0), complex(np.nan, 1.0), 1e154 + 1e154j,
             complex(-1e-310, 0.0)]
    with np.errstate(all="ignore"):
        assert_bitwise(w**2, np.square(w), "w**2")
        for d in (3, 4, 5):
            assert_bitwise(w**d, np.power(w, d), f"w**{d}")


def test_modulus_over_its_own_real_parts():
    # fatou's cycle test writes |w - p| over the real parts of w - p
    rng = np.random.default_rng(6)
    d = (rng.standard_normal(4099) + 1j * rng.standard_normal(4099)) * 10.0 ** rng.uniform(
        -300, 300, 4099)
    d[:6] = [np.nan, complex(np.inf, np.nan), complex(-0.0, -0.0), complex(0.0, -np.inf),
             1e308 + 1e308j, complex(5e-324, -5e-324)]
    want = np.abs(d)
    with np.errstate(all="ignore"):
        got = np.abs(d, out=d.real)
    assert_bitwise(got, want)


# ---------------------------------------------------------------------------
# exactness against the masked loops


def _report(r):
    return (r.samples, r.estimate, r.fitted_exponent, sorted(r.parameters.items()))


def _audits(audits):
    return {k: (a.samples, a.fitted_constant, a.min_ratio_location, a.violations)
            for k, a in audits.items()}


def _onedim_starts():
    # real starts survive to n_max, complex ones escape early; the repeated
    # tail crosses into a second block, so ties must resolve to the first
    # start; exact zero and the fixed points hit the -inf/+inf edge cases
    rng = np.random.default_rng(7)
    ws = np.concatenate([
        rng.uniform(-2.0, 2.0, 2500).astype(complex),
        2.2 * np.sqrt(rng.random(2500)) * np.exp(2j * np.pi * rng.random(2500)),
        [0.0, 2.0, -2.0, 1e-300, 3.0],
    ])
    return np.concatenate([ws, ws[:400]])


def case_slow():
    return [_report(slow_approach_stats(siegel_map(lam), 0.05, 20, 150, 5000, seed=5))
            for lam in (0.5, LAM)]


def case_e_set():
    return [[_report(r) for r in e_set_area(siegel_map(lam), 0.01 + 0.01j, 0.05,
                                            [0, 10, 40, 80], 3000, seed=2)]
            for lam in (0.5, LAM)]


def case_exclusion():
    return [[_report(r) for r in exclusion_area(build_map(lam, 2, [[-1.749, 1.0]]), 0.1, 8,
                                                range(12, 40, 6), 5000, seed=3)]
            for lam in (0.65, 0.5 + 0.4j)]


def case_render():
    windows = {
        "escaping": (chebyshev_map(), SliceSpec("fiber", 0j, 3.0, 24, 0.01 + 0.02j), 60),
        "basilica": (basilica_map(), SliceSpec("fiber", 0j, 1.6, 24, 0j), 300),
        "base_plane": (basilica_map(LAM), SliceSpec("base", 0j, 0.1, 16, 1.2), 300),
    }
    out = {}
    for name, (m, spec, horizon) in windows.items():
        r = render_slice(m, spec, horizon=horizon)
        counts = {int(c): int((r.codes == c).sum()) for c in np.unique(r.codes)}
        out[name] = (_digest(r.codes, r.escape_steps), r.labels, counts)
    return out


def case_classify():
    pts = [(0.01, 0.05), (0.02 + 0.01j, -0.9 + 0.1j), (0.0, 1.9), (0.03 - 0.01j, 0.4 + 0.6j)]
    return [classify_point(basilica_map(LAM), p, horizon=500) for p in pts] + [
        classify_point(build_map(0.5, 2, [[0.25, 1.0]]), (0.0, 0.5 - 1e-7), horizon=200)]


def case_przytycki():
    out = []
    for m in (chebyshev_map(), chebyshev_map(LAM)):
        for eps in (0.1, 0.05):
            r = BD.przytycki_return(m, eps, BD.critical_ball_grid(m, eps, 30), horizon=1000)
            loc = r.min_ratio_location
            out.append((r.samples, loc and loc["n"], loc, r.fitted_constant))
    return out


def case_onedim():
    ws = _onedim_starts()
    out = {}
    for delta in (0.5, 1.0):
        out[f"cheb_{delta}"] = _audits(BD.audit_onedim(
            chebyshev_map().f0(), ws, n_max=60, lambda0=0.8, delta=delta))
    f0 = build_map(0.5, 2, [[-0.1 + 0.9j, 1.0]]).f0()
    out["dendrite"] = _audits(BD.audit_onedim(f0, ws, n_max=60, lambda0=0.99, delta=1.0))
    return out


def case_iterate_block():
    z0 = np.concatenate([np.zeros(3), 0.05 * np.exp(1j * np.arange(5))])
    w0 = np.array([0.3, -1.1, 0.9 + 0.1j, 2.5, 0.0, 1e-3j, -1.9, 0.5 - 0.5j])
    runs = {
        "mixed": (chebyshev_map(LAM), z0, w0, 80),
        "none_escape": (nearfixed_map(), z0, 0.1 * w0, 80),
        "all_escape": (chebyshev_map(), np.zeros(4), np.array([3.0, -4.0, 5j, 10.0]), 20),
    }
    out = {}
    for name, (m, z, w, n) in runs.items():
        b = iterate_block(m, z, w, n)
        out[name] = (_digest(b.ws, b.log_vder, b.tame), b.lengths.tolist(), b.escaped.tolist())
    return out


CASES = {
    "slow": case_slow,
    "e_set": case_e_set,
    "exclusion": case_exclusion,
    "render": case_render,
    "classify": case_classify,
    "przytycki": case_przytycki,
    "onedim": case_onedim,
    "iterate_block": case_iterate_block,
}

# recorded from the masked full-length loops the kernel replaced
EXPECTED = {'classify': ['cycle_0', 'cycle_0', 'escaping', 'escaping', 'parabolic_0'],
 'e_set': [[(3000,
             0.147,
             None,
             [('alpha', 0.05), ('n', 0), ('z_im', 0.01), ('z_re', 0.01)]),
            (3000,
             0.051666666666666666,
             None,
             [('alpha', 0.05), ('n', 10), ('z_im', 0.01), ('z_re', 0.01)]),
            (3000,
             0.0026666666666666666,
             None,
             [('alpha', 0.05), ('n', 40), ('z_im', 0.01), ('z_re', 0.01)]),
            (3000, 0.0, None, [('alpha', 0.05), ('n', 80), ('z_im', 0.01), ('z_re', 0.01)]),
            (3000,
             0.09990763007428412,
             0.09990763007428412,
             [('alpha', 0.05),
              ('cells', 4),
              ('nonzero_cells', 3),
              ('r_squared', 0.999867142080815),
              ('z_im', 0.01),
              ('z_re', 0.01)])],
           [(3000,
             0.147,
             None,
             [('alpha', 0.05), ('n', 0), ('z_im', 0.01), ('z_re', 0.01)]),
            (3000,
             0.051333333333333335,
             None,
             [('alpha', 0.05), ('n', 10), ('z_im', 0.01), ('z_re', 0.01)]),
            (3000,
             0.002,
             None,
             [('alpha', 0.05), ('n', 40), ('z_im', 0.01), ('z_re', 0.01)]),
            (3000, 0.0, None, [('alpha', 0.05), ('n', 80), ('z_im', 0.01), ('z_re', 0.01)]),
            (3000,
             0.10760312806717344,
             0.10760312806717344,
             [('alpha', 0.05),
              ('cells', 4),
              ('nonzero_cells', 3),
              ('r_squared', 0.9999696977757558),
              ('z_im', 0.01),
              ('z_re', 0.01)])]],
 'exclusion': [[(5000, 0.0192, None, [('alpha', 0.1), ('l', 12), ('m', 8)]),
                (5000, 0.0038, None, [('alpha', 0.1), ('l', 18), ('m', 8)]),
                (5000, 0.0006, None, [('alpha', 0.1), ('l', 24), ('m', 8)]),
                (5000, 0.0, None, [('alpha', 0.1), ('l', 30), ('m', 8)]),
                (5000, 0.0, None, [('alpha', 0.1), ('l', 36), ('m', 8)]),
                (5000,
                 0.28881132523331055,
                 0.28881132523331055,
                 [('alpha', 0.1),
                  ('cells', 5),
                  ('horizon', 1000),
                  ('l_max', 36),
                  ('l_min', 12),
                  ('m', 8),
                  ('never_failing_fraction', 0.5306),
                  ('nonzero_cells', 3),
                  ('r_squared', 0.998585598279305)])],
               [(5000, 0.033, None, [('alpha', 0.1), ('l', 12), ('m', 8)]),
                (5000, 0.0038, None, [('alpha', 0.1), ('l', 18), ('m', 8)]),
                (5000, 0.0002, None, [('alpha', 0.1), ('l', 24), ('m', 8)]),
                (5000, 0.0, None, [('alpha', 0.1), ('l', 30), ('m', 8)]),
                (5000, 0.0, None, [('alpha', 0.1), ('l', 36), ('m', 8)]),
                (5000,
                 0.4254954561583817,
                 0.4254954561583817,
                 [('alpha', 0.1),
                  ('cells', 5),
                  ('horizon', 1000),
                  ('l_max', 36),
                  ('l_min', 12),
                  ('m', 8),
                  ('never_failing_fraction', 0.4548),
                  ('nonzero_cells', 3),
                  ('r_squared', 0.9922234936472832)])]],
 'iterate_block': {'mixed': ('61a364a851bf14b725916974d8133a9760b4f57486d5623276870e8e62cbeb6d',
                             [81, 81, 6, 2, 6, 5, 14, 4],
                             [False, False, True, True, True, True, True, True]),
                   'none_escape': ('6b73aa3c8031fa9b9d97290322251dd4d8e3cfe175f8dd136fc0fdc6ce2b5319',
                                   [81, 81, 81, 81, 81, 81, 81, 81],
                                   [False,
                                    False,
                                    False,
                                    False,
                                    False,
                                    False,
                                    False,
                                    False]),
                   'all_escape': ('0d6271a1d121aac792e021d528d5af7b3ab526b3053b5532ec9cf90d315cf94f',
                                  [1, 1, 1, 1],
                                  [True, True, True, True])},
 'onedim': {'cheb_0.5': {'eq_1dim_der': (193575,
                                         2.4999999999999667,
                                         {'start': 5003, 'n': 1},
                                         0),
                         'prop21i': (26827, 1.2505004726731384, {'start': 2147, 'n': 1}, 0),
                         'prop21ii': (695, 15.625410773054538, {'start': 761, 'n': 3}, 0),
                         'prop21iii': (10195,
                                       2.5001218085137555,
                                       {'start': 1108, 'n': 1},
                                       0)},
            'cheb_1.0': {'eq_1dim_der': (193575,
                                         2.4999999999999667,
                                         {'start': 5003, 'n': 1},
                                         0),
                         'prop21i': (15506, 2.5001218085137555, {'start': 1108, 'n': 1}, 0),
                         'prop21ii': (1504, 6.2507245698420295, {'start': 2129, 'n': 2}, 0),
                         'prop21iii': (10195,
                                       2.5001218085137555,
                                       {'start': 1108, 'n': 1},
                                       0)},
            'dendrite': {'eq_1dim_der': (52832,
                                         2.020202020201948,
                                         {'start': 5003, 'n': 1},
                                         0),
                         'prop21i': (24865, 2.020300451324247, {'start': 1108, 'n': 1}, 0),
                         'prop21ii': (1355, 1.184974436988493, {'start': 4243, 'n': 1}, 0),
                         'prop21iii': (593,
                                       1.2496640652293818,
                                       {'start': 4338, 'n': 1},
                                       0)}},
 'przytycki': [(900, 4, {'start': 570, 'n': 4}, 1.737177927613007),
               (900, 4, {'start': 810, 'n': 4}, 1.3352328027813363),
               (900, 5, {'start': 453, 'n': 5}, 2.1714724095162588),
               (900, None, None, None)],
 'render': {'escaping': ('d536480be217ae26b710ead99181b8db2713dfca7aad60e38e43a7192057468f',
                         ['undecided', 'escaping'],
                         {1: 576}),
            'basilica': ('daa93d4726fc972d72a64857a232f278e88fb90027037b0dec570102004309af',
                         ['undecided', 'escaping', 'cycle_0'],
                         {1: 496, 2: 80}),
            'base_plane': ('16bf575bf377143aff8d3a3c5c4882f3702f061709a3dadd2037710660776514',
                           ['undecided', 'escaping', 'cycle_0'],
                           {1: 8, 2: 248})},
 'slow': [(403,
           0.3250620347394541,
           None,
           [('alpha', 0.05),
            ('burn_in', 20),
            ('horizon', 150),
            ('requested_samples', 5000)]),
          (395,
           0.3240506329113924,
           None,
           [('alpha', 0.05),
            ('burn_in', 20),
            ('horizon', 150),
            ('requested_samples', 5000)])]}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_masked_loops(name):
    assert CASES[name]() == EXPECTED[name]


def test_all_orbits_escape_is_empty_sample():
    # c = 2 puts the fiber Julia set at measure zero: every start escapes
    with pytest.raises(EmptySample):
        slow_approach_stats(build_map(0.5, 2, [[2.0, 1.0]]), 0.05, 10, 200, 5000, seed=1)
