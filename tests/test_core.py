"""Map construction, orbit traces, and fiber-cycle detection."""

import cmath
import contextlib
import io
import json
import math

import numpy as np
import pytest

from conftest import assert_bitwise
from skewdyn import core
from skewdyn.binding import audit_pair_blocks, binding_time, mu_constants
from skewdyn.bounds import trace_starts
from skewdyn.cli import main
from skewdyn.core import (
    OrbitTrace,
    build_map,
    find_attracting_cycles,
    iterate,
    trace_csv_chunks,
)
from skewdyn.errors import (
    BaseOutsideDomain,
    DegenerateFiber,
    DegreeTooLow,
    HorizonNonPositive,
    MultiplierNotContracting,
    SkewdynError,
)
from skewdyn.fatou import SliceSpec, classify_point, render_slice
from skewdyn.fiber import FiberMap
from skewdyn.gallery import (
    basilica_map,
    chebyshev_map,
    general_embedding,
    nearfixed_map,
    siegel_map,
)
from skewdyn.measure import e_set_area, fiber_base_derivative


class TestBuildMap:
    def test_multiplier_bounds(self):
        with pytest.raises(MultiplierNotContracting):
            build_map(1.0, 2, [[-2.0, 1.0]])
        with pytest.raises(MultiplierNotContracting):
            build_map(0.0, 2, [[-2.0, 1.0]])
        with pytest.raises(MultiplierNotContracting):
            build_map(1.5, 2, [[-2.0, 1.0]])

    def test_degree_floor(self):
        with pytest.raises(DegreeTooLow):
            build_map(0.5, 1, [[-2.0, 1.0]])

    def test_unknown_mode(self):
        with pytest.raises(SkewdynError):
            build_map(0.5, 2, [[-2.0, 1.0]], mode="hybrid")

    def test_constant_c0_rejected(self):
        with pytest.raises(DegenerateFiber):
            build_map(0.5, 2, [[-2.0]])

    def test_unicritical_rescaling_snaps_leading_term(self):
        # c(z) = -2 + 3 z^2: the base rescale z -> alpha z must land the
        # lowest z-power on coefficient exactly 1, here with k = 2
        m = build_map(0.5, 2, [[-2.0, 0.0, 3.0]])
        assert m.k == 2
        c0 = m.fiber_coeffs[0]
        assert c0[0] == pytest.approx(-2.0)
        assert c0[1] == 0
        assert c0[2] == 1.0
        assert m.c0_origin == pytest.approx(-2.0)

    def test_chebyshev_shape(self):
        m = chebyshev_map()
        assert m.k == 1
        assert m.degree == 2
        assert m.mode == "unicritical"
        assert 0 < m.r0 < 1
        assert m.escape_radius >= 2.0

    def test_escape_radius_expands(self):
        # on the escape circle one step must strictly grow the modulus
        m = chebyshev_map()
        for t in range(8):
            w = m.escape_radius * cmath.exp(2j * math.pi * t / 8)
            assert abs(m.fiber_value(0.1, w)) > abs(w)


def reference_iterate(map, x0, n):
    """The scalar orbit loop through map.dfdw and map.step, summing each log
    and phase onto the list's last entry; returns (zs, ws, logs, phases,
    escape_step) as lists."""
    z0, w0 = complex(x0[0]), complex(x0[1])
    zs, ws, logs, phases = [z0], [w0], [0.0], [0.0]
    escape_step = None
    z, w = z0, w0
    for i in range(n):
        if abs(w) > map.escape_radius:
            escape_step = i
            break
        factor = map.dfdw(z, w)
        mag = abs(factor)
        logs.append(logs[-1] + (math.log(mag) if mag > 0 else -math.inf))
        phases.append(phases[-1] + (cmath.phase(factor) if mag > 0 else 0.0))
        z, w = map.step(z, w)
        zs.append(z)
        ws.append(w)
    else:
        if abs(w) > map.escape_radius:
            escape_step = n
    return zs, ws, logs, phases, escape_step


REFERENCE_MAPS = {
    "chebyshev": chebyshev_map(),
    "complex_quadratic": build_map(0.4 + 0.3j, 2, [[-0.8 + 0.2j, 1.0, 0.5 - 0.3j]]),
    "cubic": build_map(0.5, 3, [[0.3j, 1.0]]),
    "general3": build_map(0.6, 3, [[0.2 + 0.1j, 1.0], [-0.5, 0.4j], [0.3]],
                          mode="general"),
}


def _reference_starts(m):
    """Random starts up to past the escape radius, plus exact zeros of
    both signs (a zero factor at the first step) and non-finite w."""
    rng = np.random.default_rng(11)
    z0 = 0.99 * m.r0 * np.sqrt(rng.random(40)) * np.exp(2j * np.pi * rng.random(40))
    w0 = 1.2 * m.escape_radius * np.sqrt(rng.random(40)) * np.exp(2j * np.pi * rng.random(40))
    starts = [(complex(z), complex(w)) for z, w in zip(z0, w0)]
    signed = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    starts += [(z, w) for z in signed for w in signed]
    starts += [(0.01 + 0.02j, complex(math.nan, 0.0)), (0.0, complex(math.inf, 0.0)),
               (-0.0, -3.0 + 0.5j), (0.1 - 0.1j, 1e200)]
    return starts


class TestIterate:
    def test_validation(self):
        m = chebyshev_map()
        with pytest.raises(HorizonNonPositive):
            iterate(m, (0.0, 0.3), -1)
        with pytest.raises(BaseOutsideDomain):
            iterate(m, (m.r0, 0.3), 5)

    def test_fixed_point_cocycle(self):
        # w = 2 is fixed for w^2 - 2 with derivative 4
        m = chebyshev_map()
        tr = iterate(m, (0.0, 2.0), 10)
        assert len(tr) == 11
        assert np.allclose(tr.ws, 2.0)
        assert np.allclose(tr.zs, 0.0)
        for n in range(11):
            assert tr.log_vder[n] == pytest.approx(n * math.log(4.0), rel=1e-14)

    def test_escape_truncates(self):
        m = chebyshev_map()
        tr = iterate(m, (0.0, 3.0), 50)
        assert tr.escape_step is not None
        assert len(tr) < 51
        assert abs(tr.ws[-1]) > m.escape_radius

    def test_tame_flags_elementwise(self):
        m = chebyshev_map(0.5)
        tr = iterate(m, (0.2, 0.3), 6)
        expect = np.abs(tr.zs) ** m.k <= np.abs(tr.ws) ** m.degree
        assert np.array_equal(tr.tame_flags, expect)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(REFERENCE_MAPS))
    def test_matches_reference_loop(self, name):
        m = REFERENCE_MAPS[name]
        for x0 in _reference_starts(m):
            got = iterate(m, x0, 60)
            zs, ws, logs, phases, escape_step = reference_iterate(m, x0, 60)
            assert got.escape_step == escape_step, x0
            assert_bitwise(got.zs, np.array(zs, dtype=complex), f"zs {x0}")
            assert_bitwise(got.ws, np.array(ws, dtype=complex), f"ws {x0}")
            assert_bitwise(got.log_vder, np.array(logs), f"log_vder {x0}")
            assert_bitwise(got.vder_phase, np.array(phases), f"vder_phase {x0}")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_reference_starts_reach_the_edge_cases(self):
        # the starts above must include escapes and exact zero factors
        m = REFERENCE_MAPS["complex_quadratic"]
        traces = [iterate(m, x0, 60) for x0 in _reference_starts(m)]
        assert any(t.escape_step is not None for t in traces)
        assert any(t.escape_step is None for t in traces)
        assert any(np.isneginf(t.log_vder).any() for t in traces)


NAN = complex(math.nan, 0.0)

# every entry point that checks a base point against B(0, r0), given NaN
NAN_BASE = {
    "iterate": lambda m: iterate(m, (NAN, 0.3), 5),
    "trace_starts": lambda m: trace_starts(m, [0.0, NAN], [0.3, 0.3], 5),
    "binding_time_x": lambda m: binding_time(m, (NAN, 0.3), (0.0, 0.31),
                                             mu_constants(m.degree)[0]),
    "binding_time_y": lambda m: binding_time(m, (0.0, 0.3), (NAN, 0.31),
                                             mu_constants(m.degree)[0]),
    "audit_pair_blocks": lambda m: audit_pair_blocks(m, [(0.0, 0.3, NAN, 0.31)]),
    "classify_point": lambda m: classify_point(m, (NAN, 0.3)),
    "render_slice_fiber": lambda m: render_slice(m, SliceSpec("fiber", 0j, 1.0, 4, NAN)),
    "render_slice_base": lambda m: render_slice(m, SliceSpec("base", NAN, 0.1, 4, 0.3)),
    "e_set_area": lambda m: e_set_area(m, NAN, 0.05, [0, 10], 100, seed=1),
    "fiber_base_derivative": lambda m: fiber_base_derivative(m, NAN, 3),
}


@pytest.mark.parametrize("name", sorted(NAN_BASE))
def test_nan_base_is_outside_the_domain(name):
    with pytest.raises(BaseOutsideDomain):
        NAN_BASE[name](chebyshev_map())


def list_iterate(map, x0, n: int) -> OrbitTrace:
    """iterate as it stood before it stored its rows in numpy chunks: four
    Python lists for the whole orbit, copied into arrays at the end."""
    z0, w0 = complex(x0[0]), complex(x0[1])
    zs = [z0]
    ws = [w0]
    logs = [0.0]
    phases = [0.0]
    escape_step = None
    radius = map.escape_radius
    log, phase, dfdw, step = math.log, cmath.phase, map.dfdw, map.step
    log_acc = phase_acc = 0.0
    z, w = z0, w0
    for i in range(n):
        if abs(w) > radius:
            escape_step = i
            break
        factor = dfdw(z, w)
        z, w = step(z, w)
        mag = abs(factor)
        log_acc += log(mag) if mag > 0 else -math.inf
        phase_acc += phase(factor) if mag > 0 else 0.0
        logs.append(log_acc)
        phases.append(phase_acc)
        zs.append(z)
        ws.append(w)
    else:
        if abs(w) > radius:
            escape_step = n

    zs_arr = np.array(zs, dtype=complex)
    ws_arr = np.array(ws, dtype=complex)
    with np.errstate(divide="ignore"):
        tame = np.abs(zs_arr) ** map.k <= np.abs(ws_arr) ** map.degree
    return OrbitTrace(
        z0=z0,
        w0=w0,
        zs=zs_arr,
        ws=ws_arr,
        log_vder=np.array(logs),
        vder_phase=np.array(phases),
        tame_flags=tame,
        escape_step=escape_step,
    )


# c = 1/4 + 3e-7 sits just past the parabolic parameter: the critical orbit
# creeps through the gate and escapes at step 5734, in the second chunk
SLOW_ESCAPE = build_map(0.5, 2, [[0.25 + 3e-7, 1.0]])


class TestIterateChunks:
    """iterate moves its rows into numpy chunks of 4096 steps; the trace
    must be bitwise the one the whole-orbit lists gave."""

    @pytest.mark.parametrize("map, x0, n, escape_step", [
        (chebyshev_map(), (0.0, 3.0), 10, 0),               # escape at step 0
        (SLOW_ESCAPE, (0.0, 0.0), 20000, 5734),              # in a later chunk
        (SLOW_ESCAPE, (0.0, 0.0), 5734, 5734),               # at step n
        (basilica_map(), (0.01, 0.2), 0, None),              # n = 0
        (basilica_map(), (0.0, 0.0), 4095, None),            # one full chunk
        (basilica_map(), (0.0, 0.0), 4096, None),            # one row past it
        (basilica_map(), (0.01, 0.2 + 0.1j), 10000, None),   # no escape
    ], ids=["escape-0", "escape-later-chunk", "escape-at-n", "n-0",
            "n-4095", "n-4096", "no-escape"])
    def test_matches_list_loop(self, map, x0, n, escape_step):
        got, ref = iterate(map, x0, n), list_iterate(map, x0, n)
        assert got.escape_step == ref.escape_step == escape_step
        for name in ("zs", "ws", "log_vder", "vder_phase", "tame_flags"):
            assert_bitwise(getattr(got, name), getattr(ref, name), name)

    def test_csv_chunks_flag_the_escape_row(self):
        tr = iterate(SLOW_ESCAPE, (0.0, 0.0), 20000)
        chunks = list(trace_csv_chunks(tr))
        assert len(chunks) == 1 + 2  # header, then 5735 rows in 4096-row chunks
        rows = "".join(chunks[1:]).splitlines()
        flagged = [i for i, line in enumerate(rows) if line.endswith(",1")]
        assert flagged == [5734]
        assert rows[5734].startswith("5734,")


class TestAttractingCycles:
    def test_basilica_superattracting_pair(self):
        cycles = find_attracting_cycles(basilica_map())
        assert len(cycles) == 1
        cyc = cycles[0]
        assert cyc.period == 2
        assert sorted(round(p.real, 9) for p in cyc.points) == [-1.0, 0.0]
        assert abs(cyc.multiplier) < 1e-9

    def test_nearfixed_multiplier(self):
        cycles = find_attracting_cycles(nearfixed_map())
        assert len(cycles) == 1
        assert cycles[0].period == 1
        w = cycles[0].points[0]
        # fixed point of w^2 + 0.2 with multiplier 2w = 1 - sqrt(0.2...)
        assert w == pytest.approx((1 - math.sqrt(1 - 0.8)) / 2, rel=1e-10)
        assert abs(cycles[0].multiplier) == pytest.approx(1 - math.sqrt(0.2), rel=1e-9)

    def test_chebyshev_and_siegel_empty(self):
        assert find_attracting_cycles(chebyshev_map()) == []
        assert find_attracting_cycles(siegel_map()) == []
        assert find_attracting_cycles(siegel_map(), include_parabolic=True) == []

    def test_parabolic_candidate_gated(self):
        # w^2 + 0.25 has a parabolic fixed point at 0.5 (multiplier 1):
        # hidden by default, exposed as a candidate on request
        par = build_map(0.5, 2, [[0.25, 1.0]])
        assert find_attracting_cycles(par) == []
        cand = find_attracting_cycles(par, include_parabolic=True)
        assert len(cand) == 1
        assert cand[0].period == 1
        assert cand[0].points[0] == pytest.approx(0.5, abs=1e-5)
        assert abs(cand[0].multiplier - 1.0) < 1e-3

    def test_max_period_validation(self):
        with pytest.raises(ValueError):
            find_attracting_cycles(chebyshev_map(), max_period=0)
        with pytest.raises(ValueError):
            find_attracting_cycles(chebyshev_map(), max_period=13)

    @pytest.mark.parametrize("map", [
        chebyshev_map(), basilica_map(), nearfixed_map(),
        build_map(0.5, 2, [[0.25, 1.0]]), siegel_map(),
        build_map(0.5, 3, [[-0.5, 1.0], [-1.2, 0.3], [0.2j]], mode="general"),
        # both critical points fall into the one fixed point 0: deduplicated
        build_map(0.5, 3, [[0.0, 1.0], [-0.3], [0.0]], mode="general"),
    ], ids=["chebyshev", "basilica", "c=0.2", "c=1/4", "siegel", "general3",
            "odd_cubic"])
    def test_shared_scan_matches_separate_searches(self, map):
        # both variants come from one cached scan; each must equal its own
        # uncached search and the per-variant loop the scan replaced
        core._cached_cycles.cache_clear()
        bound = max(1e6, map.escape_radius * 100.0)
        for include_parabolic in (False, True):
            separate = map.f0().attracting_cycles(12, bound, include_parabolic)
            assert find_attracting_cycles(
                map, include_parabolic=include_parabolic) == separate
            assert separate == separate_search(map.f0(), 12, bound,
                                               include_parabolic)
        assert core._cached_cycles.cache_info().misses == 1

    def test_expand_scans_once(self, tmp_path, monkeypatch):
        # the cycle gate asks for the search without parabolic candidates,
        # classify_point for the one with them: one scan serves both
        scans = []
        scan = FiberMap.cycle_scan

        def counted(self, *args, **kwargs):
            scans.append(self)
            return scan(self, *args, **kwargs)

        monkeypatch.setattr(FiberMap, "cycle_scan", counted)
        core._cached_cycles.cache_clear()
        cfg = tmp_path / "expand.json"
        cfg.write_text(json.dumps({
            "map": {"lambda": [0.5, 0.0], "degree": 2, "mode": "unicritical",
                    "fiber_coeffs": [[[-2.0, 0.0], [1.0, 0.0]]]},
            "params": {"z0": [0.0, 0.0], "w0": [0.3, 0.0], "delta": 0.001,
                       "lambda0": 0.9, "n_max": 3, "fit_n": 2}}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["expand", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0
        assert len(scans) == 1
        info = core._cached_cycles.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def separate_search(f0, max_period, escape_radius, include_parabolic):
    """The cycle search as one loop per variant, before the shared scan."""
    cycles = []
    for w0 in f0.critical_points():
        w = w0
        escaped = False
        for _ in range(10_000):
            w = f0(w)
            if abs(w) > escape_radius or not (abs(w) == abs(w)):
                escaped = True
                break
        if escaped:
            continue
        tail = f0.orbit(w, max_period)
        for p in range(1, max_period + 1):
            if abs(tail[p] - tail[0]) > 1e-3:
                continue
            cyc = f0._refine_cycle(tail[0], p)
            if cyc is None:
                continue
            if abs(cyc.multiplier - 1.0) < 1e-3:
                if not include_parabolic:
                    continue
            elif not cyc.attracting:
                continue
            if any(existing.distance(cyc.points[0]) < 1e-8 for existing in cycles):
                break
            cycles.append(cyc)
            break
    return cycles


class TestGallery:
    def test_general_embedding_agrees_pointwise(self):
        uni = chebyshev_map()
        gen = general_embedding(uni)
        assert gen.mode == "general"
        assert gen.degree == uni.degree
        for z, w in [(0.1, 0.3), (0.05 + 0.02j, -1.2 + 0.4j), (0.0, 2.0)]:
            assert gen.fiber_value(z, w) == pytest.approx(uni.fiber_value(z, w))
            assert gen.dfdw(z, w) == pytest.approx(uni.dfdw(z, w))

    def test_siegel_multiplier_on_unit_circle(self):
        sie = siegel_map()
        theta = (math.sqrt(5.0) - 1.0) / 2.0
        p = cmath.exp(2j * math.pi * theta) / 2.0
        # p is fixed with multiplier 2p on the unit circle
        assert sie.f0()(p) == pytest.approx(p)
        assert abs(2 * p) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Horner from z + c for monic coefficient tuples


PARTS = [0.0, -0.0, 1.0, -1.0, 0.3, -2.5, 1e300, -1e300, 1e-310, -1e-310, 1.7e308, 5e-324]
POINTS = [complex(a, b) for a in PARTS for b in PARTS]


def long_horner(coeffs, z):
    """_poly_eval before its monic start: every tuple from z * 0 + c[-1]."""
    acc = z * 0 + coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _bits(values) -> bytes:
    return np.asarray(values, dtype=complex).tobytes()


class TestMonicHorner:
    def test_shortcut_needs_unit_lead_and_no_negative_zero(self):
        assert core._monic((0.3 + 0j, 1.0))
        assert core._monic((complex(-0.0, -0.0), 0.2j, 1 + 0j))
        assert core._monic((complex(1.0, 0.5), complex(1.0, -0.0)))
        assert not core._monic((1.0,))
        assert not core._monic((0.3, 1.0 + 2.0**-52))
        assert not core._monic((complex(-0.0, 0.3), 1.0))
        assert not core._monic((complex(0.3, -0.0), 1.0))

    @pytest.mark.parametrize("lead", [complex(1.0, 0.0), complex(1.0, -0.0)])
    @pytest.mark.parametrize("tail", [(), (0.2 - 0.7j,), (complex(-0.0, 0.0), 3.0 + 1.0j)])
    def test_bitwise_the_long_form_for_finite_z(self, lead, tail):
        zs = np.array(POINTS)
        with np.errstate(all="ignore"):
            for c in POINTS:
                coeffs = (*tail, c, lead)
                # numpy arrays and Python complex numbers, each against itself:
                # their complex products round apart
                assert _bits(core._poly_eval(coeffs, zs)) == _bits(long_horner(coeffs, zs))
                assert (_bits([core._poly_eval(coeffs, z) for z in POINTS])
                        == _bits([long_horner(coeffs, z) for z in POINTS])), coeffs

    def test_negative_zero_parts_would_differ(self):
        # why _monic refuses them: z + c keeps a zero part's sign where
        # (z * 0 + 1) * z + c gives +0.0
        for c in (complex(-0.0, 0.5), complex(0.5, -0.0)):
            assert any(_bits(z + c) != _bits(long_horner((c, 1.0), z)) for z in POINTS)

    def test_mpmath_values_equal_the_long_form(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            coeffs = tuple(mpmath.mpc(c) for c in (0.25 - 0.5j, -1.3 + 0.1j, 1.0))
            for z in (mpmath.mpc("0.001", "-0.0003"), mpmath.mpc(-2, 0), mpmath.mpc(0, 0)):
                assert core._poly_eval(coeffs, z) == long_horner(coeffs, z)

    def test_maps_use_it(self):
        # a normalized unicritical k = 1 map has c0 = (c, 1): c0(z) is z + c
        m = chebyshev_map()
        assert core._monic(m.fiber_coeffs[0])
        z = np.array([0.01 - 0.02j, complex(-0.0, 0.001)])
        assert _bits(m.c0_at(z)) == _bits(z + m.fiber_coeffs[0][0])
