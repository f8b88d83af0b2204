"""Classification, raster, and disk-expansion verification tests.

Oracles come first and are deliberately primitive: a raw-Python per-pixel
classifier for invariant-line slices, and a dense interior-lattice coverage
check for ball-in-image verdicts.  Expected values quoted in the tests were
produced by those oracles or by closed-form geometry.
"""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skewdyn import fatou
from skewdyn.core import build_map, find_attracting_cycles
from skewdyn.errors import (
    BaseOutsideDomain,
    PreconditionViolated,
    SamplingCapExceeded,
)
from skewdyn.fatou import (
    RasterSlice,
    SliceSpec,
    classify_point,
    disk_image_contains_ball,
    raster_to_pixels,
    render_slice,
    verify_radius_proposition,
    write_p5,
)
from skewdyn.gallery import basilica_map, chebyshev_map, siegel_map


GENERAL3 = build_map(0.5, 3, [[-0.5, 1.0], [-1.2, 0.3], [0.2j]], mode="general")


def parabolic_map(lam=0.5):
    # fiber w^2 + 0.25: parabolic fixed point at 0.5 with multiplier 1
    return build_map(lam, 2, [[0.25, 1.0]])


# --------------------------------------------------------------------------
# oracles


def oracle_classify_line(c0, w0, horizon, escape_radius, cycle_pts):
    """Raw-Python classification of the invariant-line orbit w -> w^2 + c0.

    Returns (label, first escape step or -1); the cycle label fires once the
    orbit has sat within 1e-6 of the cycle for 50 consecutive steps.
    """
    w = complex(w0)
    run = 0
    for n in range(horizon + 1):
        if w != w or abs(w) > escape_radius:
            return "escaping", n
        if cycle_pts and min(abs(w - p) for p in cycle_pts) < 1e-6:
            run += 1
            if run >= 50:
                return "cycle", -1
        else:
            run = 0
        if n < horizon:
            w = w * w + c0
    return "undecided", -1


def push_lattice(map, z0, w0, delta, n, side=64):
    """Interior lattice of {z0} x B(w0, delta) mapped n steps, raw loops."""
    pts = []
    for a in np.linspace(-1.0, 1.0, side):
        for b in np.linspace(-1.0, 1.0, side):
            p = complex(w0) + delta * complex(a, b)
            if abs(p - w0) < delta:
                pts.append(p)
    out = []
    for w in pts:
        z = complex(z0)
        for _ in range(n):
            w = map.fiber_value(z, w)
            z = map.lam * z
        out.append(w)
    return np.array(out)


def lattice_covers(map, z0, w0, delta, n, center, radius):
    """True when every probe point of the target ball lies within radius/5
    of the directly mapped 64^2 interior lattice."""
    img = push_lattice(map, z0, w0, delta, n)
    probes = [complex(center)] + [
        complex(center) + radius * complex(math.cos(a), math.sin(a))
        for a in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    ]
    return all(float(np.min(np.abs(img - p))) < radius / 5.0 for p in probes)


def probe_min_check(map, z0, w0, delta, n, center, radius,
                    samples=fatou.MIN_BOUNDARY_SAMPLES):
    """The circle-probe test the gap bound replaced: refine the boundary
    image exactly as the verifier does, then take the minimum winding over
    the center and WINDING_PROBES points on the target circle, whatever the
    distance test says."""
    gap_target = radius * fatou.GAP_FRACTION
    while True:
        theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
        curve = fatou._fiber_push(map, z0, w0 + delta * np.exp(1j * theta), n)
        if not np.all(np.isfinite(curve)):
            raise SamplingCapExceeded("boundary image leaves double range")
        max_gap = float(np.abs(curve - np.roll(curve, 1)).max())
        if max_gap < gap_target:
            break
        if samples * max_gap / gap_target > fatou.SAMPLE_CAP:
            raise SamplingCapExceeded("projected past the cap")
        samples *= 2
        if samples > fatou.SAMPLE_CAP:
            raise SamplingCapExceeded("cap reached")
    dmin = float(np.min(np.abs(curve - center)))
    probes = [center] + [
        center + radius * complex(math.cos(a), math.sin(a))
        for a in np.linspace(0.0, 2.0 * math.pi, fatou.WINDING_PROBES, endpoint=False)
    ]
    winding_min = min(fatou._winding_number(curve, p) for p in probes)
    return fatou.WindingCheck(
        verdict=bool(dmin > radius and winding_min >= 1),
        winding_min=winding_min,
        distance_margin=dmin / radius - 1.0,
        samples=samples,
        max_gap=max_gap,
    )


def outcome(check, *args):
    try:
        return check(*args)
    except SamplingCapExceeded:
        return None


def assert_same_as_probe_min(chk, ref):
    assert (chk is None) == (ref is None)
    if chk is None:
        return
    assert chk.verdict == ref.verdict
    assert chk.distance_margin == ref.distance_margin
    assert chk.samples == ref.samples
    assert chk.max_gap == ref.max_gap
    if chk.distance_margin > 0:
        assert chk.winding_min == ref.winding_min


# --------------------------------------------------------------------------


class TestClassifyPoint:
    def test_escape_beyond_radius_immediate(self):
        cheb = chebyshev_map()
        w = cheb.escape_radius * 1.01
        assert classify_point(cheb, (0.0, w), horizon=3) == "escaping"

    def test_basilica_basin(self):
        assert classify_point(basilica_map(), (0.01, 0.05), horizon=1000) == "cycle_0"

    def test_chebyshev_near_julia_undecided(self):
        assert classify_point(chebyshev_map(), (0.01, 0.5), horizon=1000) == "undecided"

    def test_parabolic_candidate_labeled_apart(self):
        par = parabolic_map()
        # the petal converges like 1/n, so only a start already within the
        # cycle tolerance can complete the 50-step run at small horizon
        assert classify_point(par, (0.0, 0.5 - 1e-7), horizon=200) == "parabolic_0"
        assert classify_point(par, (0.0, 0.1), horizon=2000) == "undecided"
        assert classify_point(par, (0.0, 3.0), horizon=100) == "escaping"

    def test_superattracting_is_cycle_not_parabolic(self):
        assert classify_point(basilica_map(), (0.0, 0.01), horizon=500) == "cycle_0"

    def test_base_outside_domain(self):
        cheb = chebyshev_map()
        with pytest.raises(BaseOutsideDomain):
            classify_point(cheb, (cheb.r0 * 1.1, 0.0), horizon=10)

    def test_siegel_fixed_point_undecided(self):
        sie = siegel_map()
        assert find_attracting_cycles(sie, include_parabolic=True) == []
        theta = (math.sqrt(5.0) - 1.0) / 2.0
        p = complex(math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta)) / 2.0
        assert classify_point(sie, (0.0, p), horizon=500) == "undecided"

    def test_labels_stable_under_horizon_doubling(self):
        bas = basilica_map()
        starts = [(0.0, complex(a, b)) for a in (-1.2, -0.3, 0.2, 0.9)
                  for b in (-0.8, 0.05, 0.7)]
        for h in (100, 200):
            for x in starts:
                before = classify_point(bas, x, horizon=h)
                after = classify_point(bas, x, horizon=2 * h)
                if before != "undecided":
                    assert after == before


class TestRenderSlice:
    def test_invariant_line_matches_oracle_basilica(self):
        bas = basilica_map()
        spec = SliceSpec(plane="fiber", center=0j, extent=1.6, resolution=16, at=0j)
        ras = render_slice(bas, spec, horizon=300)
        # oracle uses the closed-form superattracting 2-cycle {0, -1}
        res = 16
        offs = (2.0 * np.arange(res) + 1.0 - res) / res * 1.6
        seen = set()
        for row in range(res):
            for col in range(res):
                w = complex(offs[col], offs[::-1][row])
                label, esc = oracle_classify_line(
                    -1.0, w, 300, bas.escape_radius, [0.0, -1.0])
                got = ras.label_at(row, col)
                if label == "cycle":
                    assert got == "cycle_0"
                else:
                    assert got == label
                assert int(ras.escape_steps[row, col]) == esc
                seen.add(got)
        assert {"escaping", "cycle_0"} <= seen

    def test_invariant_line_matches_oracle_chebyshev(self):
        cheb = chebyshev_map()
        spec = SliceSpec(plane="fiber", center=0j, extent=2.5, resolution=12, at=0j)
        ras = render_slice(cheb, spec, horizon=200)
        res = 12
        offs = (2.0 * np.arange(res) + 1.0 - res) / res * 2.5
        for row in range(res):
            for col in range(res):
                w = complex(offs[col], offs[::-1][row])
                label, esc = oracle_classify_line(
                    -2.0, w, 200, cheb.escape_radius, [])
                assert ras.label_at(row, col) == label
                assert int(ras.escape_steps[row, col]) == esc

    def test_resolution_one(self):
        ras = render_slice(
            basilica_map(),
            SliceSpec(plane="fiber", center=0.05 + 0j, extent=0.1, resolution=1, at=0.01),
            horizon=400,
        )
        assert ras.codes.shape == (1, 1)
        assert ras.label_at(0, 0) == "cycle_0"

    def test_escape_step_present_iff_escaping(self):
        ras = render_slice(
            basilica_map(),
            SliceSpec(plane="fiber", center=0j, extent=2.0, resolution=24, at=0j),
            horizon=120,
        )
        assert np.array_equal(ras.escape_steps >= 0, ras.codes == 1)

    def test_pixel_grid_orientation(self):
        # row 0 col 0 must be the upper-left corner of the window
        bas = basilica_map()
        spec = SliceSpec(plane="fiber", center=0.4 + 1.1j, extent=0.3, resolution=8, at=0j)
        ras = render_slice(bas, spec, horizon=150)
        res, ext = 8, 0.3
        w00 = spec.center + complex(-ext * (res - 1) / res, ext * (res - 1) / res)
        assert ras.label_at(0, 0) == classify_point(bas, (0j, w00), horizon=150)

    def test_base_plane_slice(self):
        cheb = chebyshev_map()
        spec = SliceSpec(plane="base", center=0j, extent=0.05, resolution=8, at=0.3)
        ras = render_slice(cheb, spec, horizon=300)
        assert ras.codes.shape == (8, 8)
        assert set(np.unique(ras.codes)) <= {0, 1}

    def test_base_plane_window_outside_r0(self):
        cheb = chebyshev_map()
        spec = SliceSpec(plane="base", center=0j, extent=2.0, resolution=8, at=0.3)
        with pytest.raises(BaseOutsideDomain):
            render_slice(cheb, spec, horizon=10)

    def test_fiber_plane_base_outside_r0(self):
        cheb = chebyshev_map()
        spec = SliceSpec(plane="fiber", center=0j, extent=1.0, resolution=4, at=0.99)
        with pytest.raises(BaseOutsideDomain):
            render_slice(cheb, spec, horizon=10)

    def test_invalid_spec(self):
        cheb = chebyshev_map()
        with pytest.raises(PreconditionViolated):
            render_slice(cheb, SliceSpec("julia", 0j, 1.0, 4, 0j), horizon=5)
        with pytest.raises(PreconditionViolated):
            render_slice(cheb, SliceSpec("fiber", 0j, 1.0, 0, 0j), horizon=5)
        with pytest.raises(PreconditionViolated):
            render_slice(cheb, SliceSpec("fiber", 0j, -1.0, 4, 0j), horizon=5)

    def test_rerun_byte_identical_512(self, tmp_path):
        bas = basilica_map()
        spec = SliceSpec(plane="fiber", center=0j, extent=1.6, resolution=512, at=0.01)
        blobs = []
        for tag in ("a", "b"):
            ras = render_slice(bas, spec, horizon=300)
            p, _ = write_p5(ras, str(tmp_path / f"r{tag}.pgm"))
            with open(p, "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]
        assert len(blobs[0]) == len(b"P5\n512 512\n255\n") + 512 * 512


class TestP5:
    def _tiny_raster(self):
        spec = SliceSpec(plane="fiber", center=0j, extent=1.0, resolution=2, at=0j)
        return RasterSlice(
            spec=spec,
            horizon=100,
            labels=["undecided", "escaping", "cycle_0"],
            codes=np.array([[0, 1], [1, 2]], dtype=np.int16),
            escape_steps=np.array([[-1, 0], [100, -1]], dtype=np.int32),
        )

    def test_pixel_encoding(self):
        px = raster_to_pixels(self._tiny_raster())
        # undecided 0; escape step 0 -> 1; escape step == horizon -> 254; cycle 255
        assert px.tolist() == [[0, 1], [254, 255]]

    def test_header_and_sidecar(self, tmp_path):
        path = str(tmp_path / "tiny.pgm")
        p, side = write_p5(self._tiny_raster(), path)
        raw = open(p, "rb").read()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert len(raw) == len(b"P5\n2 2\n255\n") + 4
        meta = json.loads(open(side).read())
        assert meta["resolution"] == 2
        assert meta["plane"] == "fiber"
        assert meta["labels"] == ["undecided", "escaping", "cycle_0"]
        assert meta["encoding"]["255"] == "cycle basin"
        assert meta["horizon"] == 100


class TestDiskImageContainsBall:
    def test_identity_at_n0(self):
        chk = disk_image_contains_ball(chebyshev_map(), 0.0, 0.3, 1e-3, 0, 0.3, 5e-4)
        assert chk.verdict
        assert chk.winding_min == 1
        assert chk.distance_margin == pytest.approx(1.0, abs=1e-9)

    def test_radius_beyond_image_diameter(self):
        # image of B(0.3, 1e-3) at n=0 is itself; a 2e-3 ball cannot fit
        chk = disk_image_contains_ball(chebyshev_map(), 0.0, 0.3, 1e-3, 0, 0.3, 2e-3)
        assert not chk.verdict
        assert chk.distance_margin < 0

    def test_distance_rejected_reports_center_winding(self):
        # the probes on the 2e-3 circle lie outside the image circle and
        # wind 0; a rejected check reports the center's winding alone
        cheb = chebyshev_map()
        chk = disk_image_contains_ball(cheb, 0.0, 0.3, 1e-3, 0, 0.3, 2e-3)
        ref = probe_min_check(cheb, 0.0, 0.3, 1e-3, 0, 0.3, 2e-3)
        assert chk.winding_min == 1
        assert ref.winding_min == 0
        assert_same_as_probe_min(chk, ref)

    def test_fallback_band_probe_overrules_center(self):
        # 4100 boundary samples put an edge midpoint of the image polygon
        # at angle pi/4 from w0, where probe 2 of the target circle points.
        # The target circle touches the image circle from inside there, past
        # the polygon edge: every sample is farther than the radius, by less
        # than half a gap, and the center winds once, but probe 2 lies
        # outside the polygon and winds 0, so the verdict must be False
        cheb = chebyshev_map()
        delta, radius, samples = 1e-3, 5e-4, 4100
        rho = delta * (1.0 - 1.5e-7)  # between the polygon edge and the circle
        center = 0.3 + (rho - radius) * cmath.exp(0.25j * math.pi)
        args = (cheb, 0.0, 0.3, delta, 0, center, radius)
        chk = disk_image_contains_ball(*args, boundary_samples=samples)
        dmin = (chk.distance_margin + 1.0) * radius
        assert radius < dmin <= radius + 0.5 * chk.max_gap
        assert not chk.verdict
        assert chk.winding_min == 0
        assert_same_as_probe_min(chk, probe_min_check(*args, samples=samples))

    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    @given(which=st.sampled_from(["chebyshev", "basilica", "general3"]),
           n=st.integers(0, 8), z0=st.sampled_from([0.0, 5e-13]),
           log_delta=st.floats(-6.0, -3.0),
           log_scale=st.floats(-3.0, 0.3) | st.floats(-4e-4, 0.0))
    def test_gap_bound_matches_probe_minimum(self, which, n, z0, log_delta, log_scale):
        map = {"chebyshev": chebyshev_map(), "basilica": basilica_map(),
               "general3": GENERAL3}[which]
        f0 = map.f0()
        orbit = f0.orbit(0.3, n)
        # radius log-uniform around the size of the linearized image disk,
        # half the draws within the gap band just inside its edge
        stretch = math.prod(abs(f0.deriv(w)) for w in orbit[:-1])
        delta = 10.0**log_delta
        radius = max(delta * stretch, 1e-12) * 10.0**log_scale
        args = (map, z0, 0.3, delta, n, orbit[-1], radius)
        assert_same_as_probe_min(outcome(disk_image_contains_ball, *args),
                                 outcome(probe_min_check, *args))

    def test_chebyshev_direct_n5(self):
        cheb = chebyshev_map()
        center = cheb.f0().orbit(0.3, 5)[-1]
        # radius 0.664 * 0.9^5 * 1e-3 from the fitted constant of the
        # expansion fixture; the curve needs one refinement doubling
        chk = disk_image_contains_ball(
            cheb, 5e-13, 0.3, 1e-3, 5, center, 0.664 * 0.9**5 * 1e-3)
        assert chk.verdict
        assert chk.samples > 4096

    def test_lattice_coverage_backs_verdicts_small_n(self):
        cheb = chebyshev_map()
        f0 = cheb.f0()
        for n in (0, 1, 2):
            center = f0.orbit(0.3, n)[-1]
            radius = 0.6 * 0.9**n * 1e-3
            chk = disk_image_contains_ball(cheb, 5e-13, 0.3, 1e-3, n, center, radius)
            assert chk.verdict
            assert lattice_covers(cheb, 5e-13, 0.3, 1e-3, n, center, radius)

    def test_basilica_collapse_returns_false(self):
        # the superattracting 2-cycle swallows the disk: by n=20 the image
        # blob has collapsed onto the cycle and the target center with it,
        # so neither the winding nor the distance test can certify anything
        bas = basilica_map()
        center = bas.f0().orbit(0.3, 20)[-1]
        chk = disk_image_contains_ball(bas, 1e-12, 0.3, 1e-3, 20, center, 2.5e-10)
        assert not chk.verdict
        assert chk.winding_min == 0
        assert chk.distance_margin == -1.0

    def test_chebyshev_direct_n20_hits_cap(self):
        # any complex neighborhood of a Julia point contains escaping points,
        # so the boundary curve is astronomically folded by n=20
        cheb = chebyshev_map()
        center = cheb.f0().orbit(0.3, 20)[-1]
        with pytest.raises(SamplingCapExceeded):
            disk_image_contains_ball(cheb, 5e-13, 0.3, 1e-3, 20, center, 1e-5)

    def test_boundary_samples_floor(self):
        with pytest.raises(PreconditionViolated):
            disk_image_contains_ball(chebyshev_map(), 0.0, 0.3, 1e-3, 0, 0.3, 1e-4,
                                     boundary_samples=1024)

    def test_nonpositive_geometry(self):
        cheb = chebyshev_map()
        with pytest.raises(PreconditionViolated):
            disk_image_contains_ball(cheb, 0.0, 0.3, 0.0, 1, 0.3, 1e-4)
        with pytest.raises(PreconditionViolated):
            disk_image_contains_ball(cheb, 0.0, 0.3, 1e-3, 1, 0.3, -1e-4)


# verify_radius_proposition(chebyshev_map(), z0, 0.3, 1e-3, 0.9, 12, fit_n=4)
# before the verifier certified with one winding: fitted constant, then per
# step (radius, distance_margin, link_source); every step was verified with
# winding margin 1 on 4096 samples, centered on the f0-orbit of 0.3
EXPAND_CENTERS = [
    -1.91, 1.6481, 0.7162336099999997, -1.4870094159063683,
    0.21119700299419852, -1.9553958259262685, 1.8235728360498737,
    1.3254178883789796, -0.243267421165007, -1.9408209617997272,
    1.766786005761218, 1.1215327901536782,
]
EXPAND_REPORTS = {
    0.0: (664.0, [
        (0.0005976, 0.002342704149960184, 0),
        (0.00053784, 3.22256484562278, 1),
        (0.000484056, 2.643540583282488, 2),
        (0.00043565039999999997, 0.5831396181766979, 3),
        (0.00039208536, 2.287463814295556, 4),
        (0.00035287682400000003, 0.5381861995062471, 4),
        (0.0003175891416, 3.3232092630183443, 6),
        (0.00028583022744000004, 3.031772802831804, 7),
        (0.000257247204696, 1.9303317986695148, 8),
        (0.00023152248422640004, 0.5820050927410854, 8),
        (0.00020837023580376002, 3.291116112145832, 10),
        (0.00018753321222338408, 2.9063309552442074, 11),
    ]),
    5e-13: (0.6640624999999999, [
        (0.0005976562499999999, 0.0022483651764235724, 0),
        (0.000537890625, 3.222564783281328, 1),
        (0.0004841015625, 2.64354052733573, 2),
        (0.00043569140624999994, 0.5831395679131084, 3),
        (0.000392122265625, 2.2874637691080832, 4),
        (0.0003529100390625, 0.5381857352123107, 4),
        (0.00031761903515625003, 3.3232092264547806, 6),
        (0.00028585713164062503, 3.031772769934869, 7),
        (0.00025727141847656254, 1.9303317690663704, 8),
        (0.00023154427662890628, 0.5820048775701725, 8),
        (0.0002083898489660156, 3.2911160881740065, 10),
        (0.0001875508640694141, 2.9063309336684218, 11),
    ]),
}


class TestVerifyRadiusProposition:
    @pytest.mark.parametrize("z0", sorted(EXPAND_REPORTS), ids=["one_dim", "skew"])
    def test_reports_exact(self, z0):
        rep = verify_radius_proposition(chebyshev_map(), z0, 0.3, 1e-3, 0.9, 12,
                                        fit_n=4)
        fitted, rows = EXPAND_REPORTS[z0]
        assert rep.fitted_constant == fitted
        assert rep.one_dimensional == (z0 == 0.0)
        assert len(rep.steps) == len(rows)
        for n, (step, (radius, margin, link)) in enumerate(zip(rep.steps, rows), 1):
            assert step.n == n
            assert step.center == EXPAND_CENTERS[n - 1]
            assert step.radius == radius
            assert step.verified is True
            assert step.winding_margin == 1
            assert step.distance_margin == margin
            assert step.link_source == link
            assert step.samples == 4096

    def test_expansion_fixture_prefix(self):
        # w0 = 0.3, delta = 1e-3, z0 = 0.5 delta^(2d), lambda0 = 0.9: the
        # first 30 steps of the full fixture, fitted constant frozen from
        # the doubling-plus-bisection fit on n <= 10
        cheb = chebyshev_map()
        rep = verify_radius_proposition(cheb, 5e-13, 0.3, 1e-3, 0.9, 30)
        assert rep.all_verified
        assert not rep.one_dimensional
        assert 0.60 < rep.fitted_constant < 0.72
        assert rep.fitted_constant == pytest.approx(0.6640625, rel=1e-3)
        for step in rep.steps:
            assert step.radius == pytest.approx(
                rep.fitted_constant * 0.9**step.n * 1e-3, rel=1e-12)
            assert step.link_source is not None
            assert 0 <= step.link_source < step.n
            assert step.winding_margin >= 1
            assert step.distance_margin > 0

    def test_one_dimensional_variant(self):
        # z0 = 0 switches the radius law to delta^d
        cheb = chebyshev_map()
        rep = verify_radius_proposition(cheb, 0.0, 0.3, 1e-3, 0.9, 20)
        assert rep.one_dimensional
        assert rep.all_verified
        assert rep.fitted_constant == pytest.approx(664.0, rel=1e-2)
        for step in rep.steps:
            assert step.radius == pytest.approx(
                rep.fitted_constant * 0.9**step.n * 1e-6, rel=1e-12)

    def test_monotone_in_delta_on_nested_runs(self):
        cheb = chebyshev_map()
        z0 = 0.25 * (5e-4) ** 4  # inside the gate for both radii
        big = verify_radius_proposition(cheb, z0, 0.3, 1e-3, 0.9, 15)
        small = verify_radius_proposition(cheb, z0, 0.3, 5e-4, 0.9, 15)
        ok_big = {s.n for s in big.steps if s.verified}
        ok_small = {s.n for s in small.steps if s.verified}
        assert ok_big <= ok_small
        assert ok_big == set(range(1, 16))

    def test_parabolic_fiber_partial_verification(self):
        # the petal contracts polynomially, so the exponential radius law
        # overshoots in a mid range and recovers later; the chain bridges
        # the unverified gap from the last certified steps
        par = parabolic_map()
        rep = verify_radius_proposition(par, 0.0, 0.3, 1e-3, 0.9, 40)
        assert not rep.all_verified
        bad = [s.n for s in rep.steps if not s.verified]
        assert len(bad) >= 3
        assert all(5 <= n <= 30 for n in bad)
        assert all(s.verified for s in rep.steps if s.n <= 4)
        assert all(s.verified for s in rep.steps if s.n >= 31)

    def test_precondition_gates(self):
        cheb = chebyshev_map()
        bas = basilica_map()
        with pytest.raises(PreconditionViolated):
            verify_radius_proposition(cheb, 0.0, 0.3, 0.02, 0.9, 5)  # delta >= rho
        with pytest.raises(PreconditionViolated):
            verify_radius_proposition(cheb, 1e-3, 0.3, 1e-3, 0.9, 5)  # z0 too big
        with pytest.raises(PreconditionViolated):
            verify_radius_proposition(cheb, 0.0, 0.3, 1e-3, 0.4, 5)  # lambda0 <= |lam|
        with pytest.raises(PreconditionViolated):
            verify_radius_proposition(cheb, 0.0, 0.3, 1e-3, 1.0, 5)  # lambda0 >= 1
        with pytest.raises(PreconditionViolated):
            verify_radius_proposition(cheb, 0.0, 0.3, 1e-3, 0.9, 0)  # empty horizon
        with pytest.raises(PreconditionViolated):
            verify_radius_proposition(bas, 0.0, 0.3, 1e-3, 0.9, 5)  # attracting cycle
        with pytest.raises(PreconditionViolated):
            # parabolic fiber passes the cycle gate, but a start inside the
            # petal trips the basin gate
            verify_radius_proposition(parabolic_map(), 0.0, 0.5 - 1e-7, 1e-3, 0.9, 5)

    def test_report_json_shape(self):
        cheb = chebyshev_map()
        rep = verify_radius_proposition(cheb, 5e-13, 0.3, 1e-3, 0.9, 3)
        doc = rep.to_json()
        assert set(doc) == {"z0", "w0", "delta", "lambda0", "fitted_constant",
                            "one_dimensional", "all_verified", "steps"}
        assert len(doc["steps"]) == 3
        assert set(doc["steps"][0]) == {"n", "center", "radius", "verified",
                                        "winding_margin", "distance_margin",
                                        "link_source", "samples"}
        json.dumps(doc)  # must be serializable as-is
