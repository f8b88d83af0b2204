"""Classification, raster, and disk-expansion verification tests.

Oracles come first and are deliberately primitive: a raw-Python per-pixel
classifier for invariant-line slices, and a dense interior-lattice coverage
check for ball-in-image verdicts.  Expected values quoted in the tests were
produced by those oracles or by closed-form geometry.
"""

import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_bitwise
from skewdyn import fatou
from skewdyn.core import _Orbits, build_map, find_attracting_cycles
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
from skewdyn.gallery import basilica_map, chebyshev_map, nearfixed_map, siegel_map


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
    image as the verifier did before its boundary ladder, from a fresh
    linspace at every doubling, with its SamplingCapExceeded messages, then
    take the minimum winding over the center and WINDING_PROBES points on
    the target circle, whatever the distance test says."""
    gap_target = radius * fatou.GAP_FRACTION
    while True:
        theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
        curve = fatou._fiber_push(map, z0, w0 + delta * np.exp(1j * theta), n)
        if not np.all(np.isfinite(curve)):
            raise SamplingCapExceeded("boundary image leaves double precision range")
        max_gap = float(np.abs(curve - np.roll(curve, 1)).max())
        if max_gap < gap_target:
            break
        projected = samples * max_gap / gap_target
        if projected > fatou.SAMPLE_CAP:
            raise SamplingCapExceeded(
                f"resolving gaps {max_gap:.3g} below {gap_target:.3g} needs "
                f"about {projected:.3g} samples (cap {fatou.SAMPLE_CAP})")
        samples *= 2
        if samples > fatou.SAMPLE_CAP:
            raise SamplingCapExceeded(f"sample cap {fatou.SAMPLE_CAP} reached")
    dmin = float(np.min(np.abs(curve - center)))
    probes = [center] + [
        center + radius * complex(math.cos(a), math.sin(a))
        for a in np.linspace(0.0, 2.0 * math.pi, fatou.WINDING_PROBES, endpoint=False)
    ]
    winding_min = min(roll_ring(curve, p, None)[1] for p in probes)
    return fatou.WindingCheck(
        verdict=bool(dmin > radius and winding_min >= 1),
        winding_min=winding_min,
        distance_margin=dmin / radius - 1.0,
        samples=samples,
        max_gap=max_gap,
    )


def roll_turns(rel):
    inc = np.angle(rel / np.roll(rel, 1))
    return int(round(float(np.sum(inc)) / (2.0 * math.pi)))


def roll_ring(curve, p, angles):
    """fatou._ring on whole-curve temporaries: min distance and winding,
    0 where the curve touches p; angles is not used."""
    rel = curve - p
    dmin = float(np.min(np.abs(rel)))
    return dmin, 0 if dmin == 0.0 else roll_turns(rel)


def outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except SamplingCapExceeded:
        return None


def pushes_and_error(monkeypatch, check, *args, **kwargs):
    """Run a check; return the point counts it pushed per refinement level
    and its cap message.  A level is one _fiber_push call outside a ladder
    and the block pushes of one _refine inside one."""
    sizes, push, refine = [], fatou._fiber_push, fatou._BoundaryLadder._refine
    level = []  # points pushed so far by the open _refine

    def counting(map, z0, pts, n):
        if level:
            level[0] += len(pts)
        else:
            sizes.append(len(pts))
        return push(map, z0, pts, n)

    def refining(ladder):
        level.append(0)
        try:
            refine(ladder)
        finally:
            sizes.append(level.pop())

    with monkeypatch.context() as mp:
        mp.setattr(fatou, "_fiber_push", counting)
        mp.setattr(fatou._BoundaryLadder, "_refine", refining)
        with pytest.raises(SamplingCapExceeded) as exc:
            check(*args, **kwargs)
    return sizes, str(exc.value)


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


def reference_classify_block(map, z0s, w0s, horizon, cycles):
    """_classify_block as it was before the shared base orbit: one z per
    start, and settle takes each cycle's minimum distance over an
    (orbits x points) array."""
    w = np.asarray(w0s, dtype=complex).ravel()
    m = len(w)
    codes = np.zeros(m, dtype=np.int16)
    esc = np.full(m, -1, dtype=np.int32)
    orbits = _Orbits(map, np.asarray(z0s, dtype=complex).ravel(), w, lam_left=True,
                     carry={"runs": np.zeros((len(cycles), m), dtype=np.int32)})
    pts = [np.array(c.points, dtype=complex) for c in cycles]

    def settle(n):
        out = ~(orbits.absw <= map.escape_radius)
        codes[orbits.idx[out]] = 1
        esc[orbits.idx[out]] = n
        orbits.retire(out)
        for j, p in enumerate(pts):
            dmin = np.min(np.abs(orbits.w[:, None] - p[None, :]), axis=1)
            runs = orbits.carry["runs"]
            runs[j] = np.where(dmin < fatou.CYCLE_TOL, runs[j] + 1, 0)
            done = runs[j] >= fatou.CYCLE_RUN
            codes[orbits.idx[done]] = 2 + j
            orbits.retire(done)

    settle(0)
    for n in orbits.steps(horizon):
        settle(n)
    return codes, esc


def slice_starts(spec):
    """Per-pixel (z, w) starts of a slice, one z per pixel in either plane."""
    res = spec.resolution
    offs = (2.0 * np.arange(res) + 1.0 - res) / res * spec.extent
    grid = (spec.center.real + offs)[None, :] + 1j * (spec.center.imag + offs[::-1])[:, None]
    frozen = np.full(res * res, spec.at, dtype=complex)
    if spec.plane == "fiber":
        return frozen, grid.ravel()
    return grid.ravel(), frozen


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

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_horizon_below_one_rejected(self, horizon):
        # a point stepped zero times is no evidence: (0, -1) is cycle_0, yet
        # it came back "undecided" at horizon 0
        assert classify_point(basilica_map(), (0.0, -1.0), horizon=1000) == "cycle_0"
        with pytest.raises(PreconditionViolated, match="horizon >= 1"):
            classify_point(basilica_map(), (0.0, -1.0), horizon=horizon)

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

    def test_labels_radial_starts_just_inside_the_tolerance(self):
        # the cycle test skips its complex step when no |w| lies near |p|; a
        # radial offset puts the whole distance into |w| - |p|, and near the
        # parabolic point the orbit keeps its distance for many steps
        m = parabolic_map()
        (p,) = find_attracting_cycles(m, include_parabolic=True)[0].points
        offset = 0.9 * fatou.CYCLE_TOL
        for w0 in (p + offset * p / abs(p), p - offset * p / abs(p), p + 1j * offset):
            assert classify_point(m, (0.0, w0), horizon=fatou.CYCLE_RUN + 5) == "parabolic_0"


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


RABBIT = build_map(0.5 + 0.1j, 2, [[-0.1226 + 0.7449j, 1.0]])  # attracting 3-cycle

# name -> (map, spec, horizon, codes that must appear); odd resolutions,
# complex and signed-zero frozen coordinates, and horizons short enough to
# leave pixels undecided
REFERENCE_SLICES = {
    "nearfixed_period1": (nearfixed_map(), SliceSpec("fiber", 0j, 1.2, 33, 0.01 + 0.02j),
                          74, {0, 1, 2}),
    "basilica_period2": (basilica_map(), SliceSpec("fiber", 0j, 1.6, 33, complex(-0.0, -0.0)),
                         60, {0, 1, 2}),
    "rabbit_period3": (RABBIT, SliceSpec("fiber", 0j, 1.4, 31, 0.003 - 0.001j), 74, {0, 1, 2}),
    "general3_period2": (GENERAL3, SliceSpec("fiber", 0j, 1.5, 31, 0.02j), 350, {0, 1, 2}),
    "parabolic": (parabolic_map(), SliceSpec("fiber", 0.4 + 0j, 0.2, 31, complex(-0.0, 0.0)),
                  400, {0, 1}),
    "parabolic_edge": (parabolic_map(), SliceSpec("fiber", 0j, 1.0, 31, 1e-3 + 2e-4j),
                       400, {0, 1}),
    "siegel": (siegel_map(), SliceSpec("fiber", 0j, 1.0, 31, 0.001), 300, {0, 1}),
    "basilica_base": (basilica_map(0.4 + 0.3j), SliceSpec("base", 0j, 0.1, 17, 1.2),
                      70, {0, 1, 2}),
    "nearfixed_base": (nearfixed_map(), SliceSpec("base", 0j, 0.2, 15, 0.3 + 0.1j),
                       74, {0, 2}),
}


class TestSharedBase:
    """render_slice steps one shared base orbit per fiber slice and settles
    with per-point tests; the reference steps one z per pixel and takes
    minimum distances.  Codes and escape steps must agree exactly."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_SLICES))
    def test_render_matches_reference(self, name):
        m, spec, horizon, expected_codes = REFERENCE_SLICES[name]
        _, cycles = fatou._cycle_candidates(m)
        zs, ws = slice_starts(spec)
        codes, esc = reference_classify_block(m, zs, ws, horizon, cycles)
        ras = render_slice(m, spec, horizon=horizon)
        assert_bitwise(ras.codes.ravel(), codes, "codes")
        assert_bitwise(ras.escape_steps.ravel(), esc, "escape steps")
        assert set(np.unique(codes).tolist()) == expected_codes

    def test_classify_point_matches_reference(self):
        _, cycles = fatou._cycle_candidates(RABBIT)
        starts = [(0.003 - 0.001j, w) for w in (0.1 + 0.2j, -0.5 + 0.6j, 1.3, -0.0)]
        for z0, w0 in starts:
            codes, _ = reference_classify_block(RABBIT, [z0], [w0], 200, cycles)
            label = ["undecided", "escaping", "cycle_0"][int(codes[0])]
            assert classify_point(RABBIT, (z0, w0), horizon=200) == label


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

    def test_boundary_samples_cap(self):
        # the ladder's curve and the shared unit circle stay within the cap
        with pytest.raises(PreconditionViolated):
            disk_image_contains_ball(chebyshev_map(), 0.0, 0.3, 1e-3, 0, 0.3, 1e-4,
                                     boundary_samples=fatou.SAMPLE_CAP + 1)

    def test_full_cap_check_memory(self, monkeypatch):
        # a 2^20-point check on a warm circle holds the ladder's curve
        # buffer (16 MiB) and angle array (8 MiB) plus block scratch; the
        # whole-curve temporaries of the distance and winding passes took
        # the peak to 56 MiB
        circle = fatou._UnitCircle()
        monkeypatch.setattr(fatou, "_UNIT_CIRCLE", circle)
        circle.points(4096, 8)
        cheb = chebyshev_map()
        center = cheb.f0().orbit(0.3, 3)[-1]
        tracemalloc.start()
        try:
            chk = disk_image_contains_ball(cheb, 5e-13, 0.3, 1e-3, 3, center, 7.29e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chk.samples == fatou.SAMPLE_CAP
        assert peak < 28 * 2**20

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



class TestBoundaryLadder:
    """One ladder shared by several checks against the pre-ladder verifier:
    every WindingCheck field, and every cap raise with its message and at
    the same refinement level."""

    @pytest.mark.parametrize("samples", [4096, 4100])
    def test_reused_over_ascending_and_descending_radii(self, samples):
        # at n = 3 these radii stop at levels 0..7, fail the distance test,
        # or raise on the projected sample count
        cheb = chebyshev_map()
        center = cheb.f0().orbit(0.3, 3)[-1]
        radii = [10.0**e for e in (-6.5, -6.0, -5.0, -4.5, -4.0, -3.0, -2.0, -1.5)]
        ladder = fatou._BoundaryLadder()
        seen = set()
        for radius in radii + radii[::-1]:
            args = (cheb, 5e-13, 0.3, 1e-3, 3, center, radius, samples)
            chk = outcome(disk_image_contains_ball, *args, _ladder=ladder)
            assert_same_as_probe_min(chk, outcome(probe_min_check, *args))
            assert chk == outcome(disk_image_contains_ball, *args)
            seen.add("cap" if chk is None else (chk.verdict, chk.samples))
        assert "cap" in seen and (False, samples) in seen
        assert {s for v, s in seen - {"cap"} if v} == {samples << k for k in (0, 1, 2, 4, 7)}

    def test_ladder_follows_key_changes(self):
        # the chain's pattern: a new disk or n replaces the ladder's curve
        bas = basilica_map()
        ladder = fatou._BoundaryLadder()
        orbit = bas.f0().orbit(0.3, 8)
        for n, delta, radius in ((3, 1e-3, 1e-6), (5, 1e-3, 1e-7), (3, 1e-3, 1e-7),
                                 (3, 2e-3, 1e-6), (8, 1e-3, 1e-8)):
            args = (bas, 5e-13, 0.3, delta, n, orbit[n], radius, 4100)
            chk = disk_image_contains_ball(*args, _ladder=ladder)
            assert chk == disk_image_contains_ball(*args)
            assert_same_as_probe_min(chk, probe_min_check(*args[:-1], samples=4100))
            assert len(ladder.finest) == chk.samples

    @pytest.mark.parametrize("samples, exponent, message", [
        (4096, -6.5, "resolving gaps"),
        (4100, -5.5, "sample cap 1048576 reached"),
    ])
    def test_cap_raised_at_the_same_level(self, monkeypatch, samples, exponent, message):
        cheb = chebyshev_map()
        center = cheb.f0().orbit(0.3, 5)[-1]
        args = (cheb, 5e-13, 0.3, 1e-3, 5, center, 10.0**exponent)
        ref_sizes, ref_msg = pushes_and_error(monkeypatch, probe_min_check, *args,
                                              samples=samples)
        sizes, msg = pushes_and_error(monkeypatch, disk_image_contains_ball, *args,
                                      boundary_samples=samples)
        assert msg == ref_msg and msg.startswith(message)
        # the ladder pushes each level's new points once: the points of the
        # level where the reference raised
        assert sum(sizes) == ref_sizes[-1]
        assert sizes == ref_sizes[:1] + [s // 2 for s in ref_sizes[1:]]
        # a ladder refined further by a larger ball raises from its stored
        # levels with the same message
        ladder = fatou._BoundaryLadder()
        disk_image_contains_ball(*args[:-1], 10.0**(exponent + 1.0), samples,
                                 _ladder=ladder)
        _, msg = pushes_and_error(monkeypatch, disk_image_contains_ball, *args,
                                  samples, _ladder=ladder)
        assert msg == ref_msg

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_raised_at_the_same_level(self, monkeypatch):
        # the escaping boundary image peaks in modulus at the angle pi/4096,
        # which level 1 samples and level 0 does not.  |w0| sits inside the
        # window (4.2506396984294 to 4.2506396984356) where only points near
        # that peak overflow, so level 0 is finite and level 1 is not; level
        # 0's gaps of about 4e303 ask for one doubling at radius 1e303
        cheb = chebyshev_map()
        w0 = 4.2506396984325 * cmath.exp(1j * math.pi / 4096)
        args = (cheb, 0.0, w0, 1e-4, 9, w0, 1e303)
        ref_sizes, ref_msg = pushes_and_error(monkeypatch, probe_min_check, *args)
        sizes, msg = pushes_and_error(monkeypatch, disk_image_contains_ball, *args)
        assert ref_sizes == [4096, 8192] and sizes == [4096, 4096]
        assert msg == ref_msg == "boundary image leaves double precision range"

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_projection_past_double_range_names_no_count(self):
        # level 0 is finite with gaps near 8e305, so samples * max_gap
        # overflows: the raise stands, the message quotes no made-up count
        cheb = chebyshev_map()
        with pytest.raises(SamplingCapExceeded) as exc:
            disk_image_contains_ball(cheb, 0.0, 15.5, 0.5, 8, 0.0, 1.0)
        msg = str(exc.value)
        assert msg.startswith("resolving gaps 8.13e+305 below")
        assert msg.endswith("needs a sample count past double range (cap 1048576)")
        assert "inf" not in msg


# the verifier's layer before the shared unit circle, kept verbatim as the
# reference: a fresh linspace/exp per key, roll-based edges and winding
# (roll_ring above), every pass over the whole curve at once


def copying_fiber_push(map, z0, pts, n):
    w = pts.copy()
    z = complex(z0)
    for _ in range(n):
        w = map.fiber_value(z, w)
        z = map.lam * z
    return w


class FreshCircleLadder(fatou._BoundaryLadder):
    def _refine(self):
        z0, w0, delta, n, samples = self.key
        prev = self.finest
        if prev is None:
            theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
        else:
            theta = np.arange(1, 2 * len(prev), 2) * (2.0 * math.pi / (2 * len(prev)))
        new = copying_fiber_push(self.map, z0, w0 + delta * np.exp(1j * theta), n)
        if prev is None:
            curve = new
            edges = [(new, np.roll(new, 1))]
        else:
            curve = np.empty(2 * len(new), dtype=complex)
            curve[0::2], curve[1::2] = prev, new
            edges = [(new, prev), (prev, np.roll(new, 1))]
        finite = ((not self.levels or self.levels[-1][1])
                  and bool(np.all(np.isfinite(new))))
        max_gap = (max(float(np.abs(a - b).max()) for a, b in edges) if finite
                   else math.nan)
        self.finest = curve
        self.levels.append((max_gap, finite))


def check_both(monkeypatch, ladder, ref_ladder, *args, samples=fatou.MIN_BOUNDARY_SAMPLES):
    """One check through each ladder, the reference with the roll-based
    distance and winding; returns both outcomes as WindingCheck or the
    SamplingCapExceeded text."""
    def run(check_ladder):
        try:
            return disk_image_contains_ball(*args, boundary_samples=samples,
                                            _ladder=check_ladder)
        except SamplingCapExceeded as exc:
            return str(exc)

    got = run(ladder)
    with monkeypatch.context() as mp:
        mp.setattr(fatou, "_ring", roll_ring)
        want = run(ref_ladder)
    assert_circle_bounded()
    return got, want


def assert_same_ladder(ladder, ref):
    assert ladder.key == ref.key
    assert len(ladder.levels) == len(ref.levels)
    for k, (got, want) in enumerate(zip(ladder.levels, ref.levels)):
        assert_bitwise(ladder.curve(k), ref.curve(k), f"curve {k}")
        assert_bitwise(np.float64(got[0]), np.float64(want[0]), f"max_gap {k}")
        assert got[1] is want[1]
        if got[1]:
            assert got[0] == polygon_max_gap(ladder.curve(k)), f"max_gap {k}"


def polygon_max_gap(curve):
    """The longest edge of the closed polygon through curve."""
    return float(np.abs(np.diff(np.r_[curve, curve[:1]])).max())


def assert_circle_bounded():
    held = sum(len(a) for a in fatou._UNIT_CIRCLE.levels)
    assert held <= fatou.SAMPLE_CAP


class TestSharedUnitCircle:
    """The ladder on the process's unit circle, with split edges and the
    buffered winding, against the layer they replaced: per-level curves, max
    gaps and finite flags bitwise, every WindingCheck field equal."""

    def test_interleaved_keys(self, monkeypatch):
        # two ladders and two maps take turns; every switch of key or ladder
        # reads the circle levels another key filled
        cheb = chebyshev_map()
        keys = [(cheb, 5e-13, 0.3, 1e-3, 3), (GENERAL3, 0.0, 0.3, 1e-3, 4),
                (cheb, 0.0, 0.3, 2e-3, 2), (cheb, 5e-13, 0.3, 1e-3, 5)]
        ladders = [(fatou._BoundaryLadder(), FreshCircleLadder()) for _ in range(2)]
        seen = set()
        for i in range(12):
            map, z0, w0, delta, n = keys[i % len(keys)]
            ladder, ref = ladders[i % 2]
            center = map.f0().orbit(w0, n)[-1]
            for exponent in (-5.0, -6.0, -3.0):
                got, want = check_both(monkeypatch, ladder, ref, map, z0, w0, delta, n,
                                       center, 10.0**exponent)
                assert got == want
                seen.add(got if isinstance(got, str) else (got.verdict, got.samples))
            assert_same_ladder(ladder, ref)
        assert len(seen) > 4  # verdicts, refinement levels and cap raises

    @pytest.mark.parametrize("samples", [4096, 4097, 5000, 6144])
    def test_initial_sample_counts(self, monkeypatch, samples):
        cheb = chebyshev_map()
        center = cheb.f0().orbit(0.3, 3)[-1]
        args = (cheb, 5e-13, 0.3, 1e-3, 3)
        ladder, ref = fatou._BoundaryLadder(), FreshCircleLadder()
        for exponent in (-4.0, -6.0, -5.0, -6.5):
            got, want = check_both(monkeypatch, ladder, ref, *args, center,
                                   10.0**exponent, samples=samples)
            assert got == want
        # every level the cap admits, up to 2^20 points for 4096
        top = (fatou.SAMPLE_CAP // samples).bit_length() - 1
        ladder.level(top), ref.level(top)
        assert_same_ladder(ladder, ref)
        assert_circle_bounded()
        if samples == 4096:
            assert len(ladder.curve(top)) == fatou.SAMPLE_CAP
            assert sum(len(a) for a in fatou._UNIT_CIRCLE.levels) == fatou.SAMPLE_CAP

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_push_leaving_double_range(self, monkeypatch):
        # level 0 stays finite and level 1 overflows near the angle pi/4096
        # (see test_non_finite_raised_at_the_same_level)
        cheb = chebyshev_map()
        w0 = 4.2506396984325 * cmath.exp(1j * math.pi / 4096)
        ladder, ref = fatou._BoundaryLadder(), FreshCircleLadder()
        got, want = check_both(monkeypatch, ladder, ref, cheb, 0.0, w0, 1e-4, 9,
                               w0, 1e303)
        assert got == want == "boundary image leaves double precision range"
        ladder.level(2), ref.level(2)
        assert [f for _, f in ladder.levels] == [True, False, False]
        assert_same_ladder(ladder, ref)

    def test_n_zero(self, monkeypatch):
        # the curve is the sampled circle itself, a fresh array each time
        cheb = chebyshev_map()
        ladder, ref = fatou._BoundaryLadder(), FreshCircleLadder()
        for radius in (5e-4, 2e-3, 1e-6):
            got, want = check_both(monkeypatch, ladder, ref, cheb, 0.0, 0.3, 1e-3, 0,
                                   0.3, radius)
            assert got == want
        assert_same_ladder(ladder, ref)
        for pts in fatou._UNIT_CIRCLE.levels:
            assert not np.shares_memory(ladder.finest, pts)
            with pytest.raises(ValueError):
                pts[0] = 0.0

    def test_new_sample_count_drops_cached_levels(self, monkeypatch):
        cheb = chebyshev_map()
        circle = fatou._UnitCircle()  # no levels left by earlier tests
        monkeypatch.setattr(fatou, "_UNIT_CIRCLE", circle)
        ladder, ref = fatou._BoundaryLadder(), FreshCircleLadder()
        ladder.select(cheb, 0.0, 0.3, 1e-3, 2, 4096)
        ref.select(cheb, 0.0, 0.3, 1e-3, 2, 4096)
        ladder.level(3), ref.level(3)
        assert circle.samples == 4096
        assert [len(a) for a in circle.levels] == [4096, 4096, 8192, 16384]
        kept = [a.copy() for a in circle.levels]
        center = cheb.f0().orbit(0.3, 2)[-1]
        got, want = check_both(monkeypatch, ladder, ref, cheb, 0.0, 0.3, 1e-3, 2,
                               center, 1e-5, samples=5000)
        assert got == want
        assert circle.samples == 5000
        assert sum(len(a) for a in circle.levels) == got.samples
        # back at 4096 the levels are evaluated again, bit for bit
        ladder.select(cheb, 0.0, 0.3, 1e-3, 2, 4096)
        ref.select(cheb, 0.0, 0.3, 1e-3, 2, 4096)
        ladder.level(3), ref.level(3)
        assert_same_ladder(ladder, ref)
        for k, pts in enumerate(kept):
            assert_bitwise(circle.levels[k], pts, f"circle level {k}")

    @pytest.mark.parametrize("size", [1, 2, 3, 4096, 5001])
    def test_turns_matches_roll(self, size):
        # closed curves that wind -3..3 times with a wobbling radius, and
        # random point clouds, whose winding sums need not be near integers
        rng = np.random.default_rng(size)
        t = np.linspace(0.0, 2.0 * math.pi, size, endpoint=False)
        angles = np.empty(size)
        for m in range(-3, 4):
            radius = 1.0 + 0.5 * rng.uniform(-1.0, 1.0, size)
            rel = radius * np.exp(1j * m * t) + 1e-3 * rng.normal(size=size)
            assert fatou._ring(rel, 0j, angles) == roll_ring(rel, 0j, None)
            cloud = rng.normal(size=size) + 1j * rng.normal(size=size)
            assert fatou._ring(cloud, 0j, angles) == roll_ring(cloud, 0j, None)
            # the curve through p winds 0 about it
            p = complex(cloud[size // 2])
            assert fatou._ring(cloud, p, angles) == roll_ring(cloud, p, None) == (0.0, 0)


class SmallBlocks:
    """Rerun a test class with blocks of 1000 and 4099 points: most curves
    then span several blocks and end in a short one (one point for 4100
    samples at 4099, and for 5001 points at 1000)."""

    @pytest.fixture(autouse=True, params=[1000, 4099])
    def small_blocks(self, request, monkeypatch):
        monkeypatch.setattr(fatou, "BLOCK", request.param)


class TestBoundaryLadderSmallBlocks(SmallBlocks, TestBoundaryLadder):
    pass


class TestSharedUnitCircleSmallBlocks(SmallBlocks, TestSharedUnitCircle):
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_push_leaving_double_range_in_a_middle_block(self, monkeypatch):
        # w0 of test_push_leaving_double_range turned by a half turn: the
        # fiber map is even, so level 0 stays finite and level 1 overflows
        # near the angle pi + pi/4096, its new point 2048 of 4096
        cheb = chebyshev_map()
        w0 = -4.2506396984325 * cmath.exp(1j * math.pi / 4096)
        ladder, ref = fatou._BoundaryLadder(), FreshCircleLadder()
        got, want = check_both(monkeypatch, ladder, ref, cheb, 0.0, w0, 1e-4, 9,
                               w0, 1e303)
        assert got == want == "boundary image leaves double precision range"
        ladder.level(2), ref.level(2)
        assert [f for _, f in ladder.levels] == [True, False, False]
        bad = np.flatnonzero(~np.isfinite(ladder.curve(1)))
        assert len(bad) and set(bad % 2) == {1}  # only new points overflow
        if fatou.BLOCK < 4096:
            assert 0 < bad.min() // 2 // fatou.BLOCK < 4096 // fatou.BLOCK
        assert_same_ladder(ladder, ref)

    def test_longest_edge_leaves_a_block(self, monkeypatch):
        # at the first level with more than BLOCK new points, new point
        # BLOCK - 1 (the last of block 0) is moved back along the curve so
        # that the edge from it to the next block's first slot is the
        # polygon's longest, a little longer than the edge into it
        cheb = chebyshev_map()
        args = (cheb, 5e-13, 0.3, 1e-3, 3)
        k = 1
        while 4096 << max(k - 1, 0) <= fatou.BLOCK:
            k += 1
        plain = fatou._BoundaryLadder()
        plain.select(*args, 4096)
        plain.level(k - 1)
        prev = plain.curve(k - 1)
        a, b = complex(prev[fatou.BLOCK - 1]), complex(prev[fatou.BLOCK])
        target = 0.3 + 1e-3 * fatou._UNIT_CIRCLE.points(4096, k)[fatou.BLOCK - 1]

        def moving(push):
            def moved(map, z0, pts, n):
                out = push(map, z0, pts, n).copy()
                out[pts == target] += 100.0 * (a - b)
                return out
            return moved

        monkeypatch.setattr(fatou, "_fiber_push", moving(fatou._fiber_push))
        monkeypatch.setitem(globals(), "copying_fiber_push", moving(copying_fiber_push))
        ladder, ref = fatou._BoundaryLadder(), FreshCircleLadder()
        ladder.select(*args, 4096), ref.select(*args, 4096)
        ladder.level(k + 1), ref.level(k + 1)
        curve = ladder.curve(k)
        edges = np.abs(np.diff(np.r_[curve, curve[:1]]))
        assert int(np.argmax(edges)) == 2 * fatou.BLOCK - 1
        assert ladder.levels[k][0] == edges.max() > 99.0 * abs(a - b)
        assert_same_ladder(ladder, ref)


# the fit's search before it started at the first radius level 0 resolves,
# kept verbatim as the reference: it starts at the radius law's r and
# doubles while the check cannot resolve the boundary within the cap


def law_start_fit_radius(status, n, r, max_gap0):
    st = status(n, r)
    while st == "small" and r < 1e6:
        r *= 2.0
        st = status(n, r)
    while st == "fail" and r > 1e-300:
        r *= 0.5
        st = status(n, r)
    if st != "pass":
        raise PreconditionViolated(
            f"no radius at step {n} passes the direct winding check; "
            "delta is not small enough for this base point")
    lo, hi = r, 2.0 * r
    while status(n, hi) == "pass":
        lo, hi = hi, 2.0 * hi
    for _ in range(8):
        mid = 0.5 * (lo + hi)
        if status(n, mid) == "pass":
            lo = mid
        else:
            hi = mid
    return lo


def fit_outcome(map, z0, w0, delta, lambda0):
    try:
        return verify_radius_proposition(map, z0, w0, delta, lambda0, 15, fit_n=5)
    except PreconditionViolated as exc:
        return str(exc)


def unicritical(lam, c):
    return build_map(lam, 2, [[c, 1.0]])


class TestFitStart:
    """The fit started at level 0's first resolvable radius against the
    search from the radius law's radius: whole reports equal, or the same
    precondition message.  A wrapper logs, per fit step, the start's grid
    index above the law's radius, the first check's status and whether
    level 0 was finite, to show which paths each case ran."""

    @pytest.mark.parametrize("args, expect", [
        # the start skips 3-10 doublings at every step
        ((unicritical(0.5, 0.3), 0.0, 0.3, 1e-3, 0.95), "skips"),
        ((unicritical(0.5, 0.25), 0.0, 0.3, 1e-3, 0.9), "skips"),
        ((unicritical(0.8, -2.0), 0.0, 0.3, 1e-3, 0.95), "skips"),
        # level 0 already resolves the skew law's radii lam0^n delta
        ((unicritical(0.5, -1.9), 5e-13, -0.7, 1e-3, 0.9), "no skips"),
        # w0 just past delta / 2: the disk holds the critical point 0 and
        # its image barely covers the center, so at steps 3 and 4 the start
        # fails and the search halves through radii it skipped
        ((chebyshev_map(), 0.0, 0.51e-3, 1e-3, 0.9), "halves"),
        # f0(w0) overflows: level 0 of step 1 is not finite
        ((unicritical(0.5, 0.25), 0.0, 1e160, 1e-3, 0.9), "non-finite"),
    ], ids=["c0.3", "c0.25", "cheb-lam0.8", "skew-c-1.9", "cheb-critical", "overflow"])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_report_matches_law_start(self, monkeypatch, args, expect):
        if classify_point(args[0], (0.0, args[2])) == "escaping":
            # c0.3 and overflow: expand rejects a start whose fiber orbit
            # escapes; behind that gate the fit must still agree on them
            assert fit_outcome(*args) == "the fiber orbit of w0 escapes"
            monkeypatch.setattr(fatou, "classify_point", lambda *a, **k: "undecided")
        steps = []
        fit = fatou._fit_radius

        def logged(status, n, r, max_gap0):
            first = []

            def logging_status(n, radius):
                if not first:
                    first.extend([math.log2(radius / r), status(n, radius)])
                    return first[1]
                return status(n, radius)

            try:
                return fit(logging_status, n, r, max_gap0)
            finally:
                steps.append((*first, math.isfinite(max_gap0)))

        monkeypatch.setattr(fatou, "_fit_radius", logged)
        got = fit_outcome(*args)
        monkeypatch.setattr(fatou, "_fit_radius", law_start_fit_radius)
        want = fit_outcome(*args)
        assert got == want
        if expect == "non-finite":
            assert steps == [(0.0, "small", False)]
            assert got.startswith("no radius at step 1 passes")
            return
        assert len(steps) == 5 and all(finite for *_, finite in steps)
        assert any(j > 0 for j, _, _ in steps) == (expect != "no skips")
        halving = [j for j, st, _ in steps if st == "fail" and j > 0]
        assert bool(halving) == (expect == "halves")

    @pytest.mark.parametrize("z0", sorted(EXPAND_REPORTS), ids=["one_dim", "skew"])
    def test_fit_checks_stay_at_level_zero(self, monkeypatch, z0):
        # every fit check decides on the level 0 that the fit reads before
        # its search, so the search itself pushes nothing; the search from
        # the law's radius pushed 2482176 points at z0 = 0, up to 2^20 per
        # step
        pushes, in_fit = [], []
        push, fit = fatou._fiber_push, fatou._fit_radius

        def counting(map, z0, pts, n):
            pushes.append((bool(in_fit), n, len(pts)))
            return push(map, z0, pts, n)

        def fitting(*args):
            in_fit.append(True)
            try:
                return fit(*args)
            finally:
                in_fit.pop()

        monkeypatch.setattr(fatou, "_fiber_push", counting)
        monkeypatch.setattr(fatou, "_fit_radius", fitting)
        verify_radius_proposition(chebyshev_map(), z0, 0.3, 1e-3, 0.9, 12, fit_n=4)
        assert not any(during_fit for during_fit, _, _ in pushes)
        assert pushes[:4] == [(False, n, fatou.MIN_BOUNDARY_SAMPLES) for n in (1, 2, 3, 4)]
        assert [size for _, _, size in pushes] == [fatou.MIN_BOUNDARY_SAMPLES] * 18
        assert sum(size for _, _, size in pushes) == 73728


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
