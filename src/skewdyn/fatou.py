"""Fatou-structure probes: orbit classification, raster slices, and
winding-number verification of vertical disk expansion.

Classification is a three-way label (escaping, cycle basin, undecided);
undecided is honest output, not failure.  The disk-expansion verifier
certifies that a shrinking ball around the fiber orbit stays inside the
image of a vertical disk.  Direct boundary mapping only works while the
image curve is short; past that the verifier chains: each step's ball is
verified inside the image of a nearby earlier certified ball, so every
boundary curve that needs resolving spans only a few map applications.

Each check refines its boundary by doubling the sample count until the
image gaps are small.  The doublings nest (every level's angles are the
even-indexed angles of the next), so a boundary ladder keeps the finest
image curve of one disk and step count and pushes only the new odd angles
when it refines; coarser levels are strided views of it.  The proposition's
verifier owns one ladder for all its checks, so the bisection over radii
at one step pushes each boundary point once.  Every curve is bitwise the
one a fresh sampling at that level gives.  The unit-circle points of each
level are evaluated once per process and shared by every ladder.

Every pass over a boundary curve (push, gaps, distance, winding) runs in
blocks of BLOCK points.  Memory per ladder is its finest curve (at most
SAMPLE_CAP points), plus the shared unit circle and block-sized scratch;
a refinement also holds the level below while it copies it into the new
one, and a check holds an angle array the length of the curve for the
winding.  No pass makes a temporary the length of the curve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import SkewProductMap, _Orbits, find_attracting_cycles
from .errors import (
    BaseOutsideDomain,
    PreconditionViolated,
    SamplingCapExceeded,
)
from .fiber import Cycle, _parabolic

CYCLE_TOL = 1e-6
CYCLE_RUN = 50  # consecutive near-cycle steps before labeling
MIN_BOUNDARY_SAMPLES = 4096
SAMPLE_CAP = 2**20
GAP_FRACTION = 0.1  # consecutive image gaps must drop below radius/10
WINDING_PROBES = 16
BLOCK = 2**15  # points per block in every pass over a boundary curve
RENDER_BAND = 2**14  # most pixels a render classifies or encodes at once


def _cycle_candidates(map: SkewProductMap) -> tuple[list[str], list[Cycle]]:
    """Labels and cycles to classify against: parabolic candidates (see
    fiber._parabolic) are labeled apart from true attractors."""
    cycles = find_attracting_cycles(map, include_parabolic=True)
    labels = [f"{'parabolic' if _parabolic(cyc) else 'cycle'}_{j}"
              for j, cyc in enumerate(cycles)]
    return labels, cycles


def _classify_block(map: SkewProductMap, z0s, w0s, horizon: int, cycles: list[Cycle]):
    """Vector classification; returns (codes, escape_steps).

    Code 0 = undecided, 1 = escaping, 2+j = basin of cycles[j].  A single
    z0 is a shared base point for every start (see _Orbits).
    """
    w = np.asarray(w0s, dtype=complex).ravel()
    m = len(w)
    codes = np.zeros(m, dtype=np.int16)
    esc = np.full(m, -1, dtype=np.int32)
    # a run ends at CYCLE_RUN, so int8 holds it
    orbits = _Orbits(map, np.asarray(z0s, dtype=complex).ravel(), w, lam_left=True,
                     carry={"runs": np.zeros((len(cycles), m), dtype=np.int8)})
    pts = [np.array(c.points, dtype=complex) for c in cycles]

    def near(p: complex) -> np.ndarray:
        # |w - p| < CYCLE_TOL for the live orbits.  It implies that |w| lies
        # within 2 CYCLE_TOL (1 + |p|) of |p|, a margin far above the
        # rounding of either modulus, so a step where no |w| does skips the
        # complex test.  That test puts w - p in the orbits' spare buffer and
        # |w - p| over its real parts: numpy gives overlapping operands the
        # values of separate ones, here without a copy
        r, margin = abs(p), 2 * CYCLE_TOL * (1 + abs(p))
        hit = (orbits.absw > r - margin) & (orbits.absw < r + margin)
        if not hit.any():
            return hit
        diff = np.subtract(orbits.w, p, out=orbits.spare)
        return np.abs(diff, out=diff.real) < CYCLE_TOL

    def settle(n: int) -> None:
        out = ~(orbits.absw <= map.escape_radius)  # catches NaN too
        codes[orbits.idx[out]] = 1
        esc[orbits.idx[out]] = n
        orbits.retire(out)
        for j, p in enumerate(pts):
            # near some point of the cycle: the OR of the per-point tests
            # is the test on their minimum distance, NaN failing both
            hit = near(p[0])
            for pk in p[1:]:
                hit |= near(pk)
            runs = orbits.carry["runs"]
            runs[j] += 1
            runs[j] *= hit
            done = runs[j] >= CYCLE_RUN
            codes[orbits.idx[done]] = 2 + j
            orbits.retire(done)

    settle(0)
    for n in orbits.steps(horizon):
        settle(n)
    return codes, esc


def classify_point(map: SkewProductMap, x, horizon: int = 1000) -> str:
    """Label the orbit of x: "escaping", "cycle_j"/"parabolic_j" for the
    basin of the j-th detected fiber cycle, or "undecided"."""
    if horizon < 1:
        raise PreconditionViolated(f"need horizon >= 1, got {horizon}")
    z0, w0 = complex(x[0]), complex(x[1])
    if not abs(z0) < map.r0:  # NaN fails too
        raise BaseOutsideDomain(f"|z0| = {abs(z0):.6g} >= r0 = {map.r0:.6g}")
    labels, cycles = _cycle_candidates(map)
    codes, _ = _classify_block(map, [z0], [w0], horizon, cycles)
    code = int(codes[0])
    if code == 0:
        return "undecided"
    if code == 1:
        return "escaping"
    return labels[code - 2]


# ---------------------------------------------------------------------------
# raster slices


@dataclass(frozen=True)
class SliceSpec:
    """Geometry of a raster: a square window in one coordinate plane.

    plane "fiber" scans w with the base frozen at `at`; plane "base"
    scans z with the fiber coordinate frozen at `at`.
    """

    plane: str  # "fiber" | "base"
    center: complex
    extent: float  # half-width
    resolution: int
    at: complex  # the frozen coordinate


@dataclass
class RasterSlice:
    spec: SliceSpec
    horizon: int
    labels: list[str]  # code -> label, starting at code 0
    codes: np.ndarray  # (resolution, resolution) int16, row 0 = top
    escape_steps: np.ndarray  # (resolution, resolution) int32, -1 where n/a

    def label_at(self, row: int, col: int) -> str:
        return self.labels[int(self.codes[row, col])]


def _band_rows(res: int):
    """Row ranges [lo, hi) of a res x res raster: whole rows, at most
    RENDER_BAND pixels per band, and at least one row."""
    rows = max(1, RENDER_BAND // res)
    for lo in range(0, res, rows):
        yield lo, min(lo + rows, res)


def render_slice(map: SkewProductMap, spec: SliceSpec, horizon: int = 1000) -> RasterSlice:
    """Classify every pixel center of the requested window.

    The window is classified in bands of whole rows, at most RENDER_BAND
    pixels each (one row when a row is longer).  Each band's starts are
    built from the pixel-center vectors, classified on their own, and
    copied into their rows of the returned codes (int16) and escape_steps
    (int32).  Those two arrays, 6 bytes per pixel, are all that the render
    holds the size of its grid; the rest is band-sized.  Classification is
    elementwise and a fiber slice's shared base orbit steps the same in
    every band, so every label and escape step is the one a single band
    gives.  A base-plane window is checked against B(0, r0) band by band,
    all of it before the cycle search and any stepping.
    """
    if spec.plane not in ("fiber", "base"):
        raise PreconditionViolated(f"unknown slice plane {spec.plane!r}")
    if spec.resolution < 1 or spec.extent <= 0:
        raise PreconditionViolated("resolution must be >= 1 and extent positive")
    if horizon < 1:
        raise PreconditionViolated(f"need horizon >= 1, got {horizon}")
    res = spec.resolution
    if spec.plane == "fiber" and not abs(spec.at) < map.r0:
        raise BaseOutsideDomain(
            f"|z0| = {abs(spec.at):.6g} >= r0 = {map.r0:.6g}")

    # pixel centers; row 0 carries the largest imaginary part
    offs = (2.0 * np.arange(res) + 1.0 - res) / res * spec.extent
    re = spec.center.real + offs
    im = spec.center.imag + offs[::-1]

    def band(lo: int, hi: int) -> np.ndarray:
        return (re[None, :] + 1j * im[lo:hi, None]).ravel()

    if spec.plane == "base":
        for lo, hi in _band_rows(res):
            if np.any(~(np.abs(band(lo, hi)) < map.r0)):
                raise BaseOutsideDomain("base-plane window reaches outside B(0, r0)")

    cyc_labels, cycles = _cycle_candidates(map)
    codes = np.empty(res * res, dtype=np.int16)
    esc = np.empty(res * res, dtype=np.int32)
    for lo, hi in _band_rows(res):
        if spec.plane == "fiber":
            zs = np.array([spec.at], dtype=complex)  # one base orbit for the slice
            ws = band(lo, hi)
        else:
            zs = band(lo, hi)
            ws = np.full(len(zs), spec.at, dtype=complex)
        codes[lo * res:hi * res], esc[lo * res:hi * res] = _classify_block(
            map, zs, ws, horizon, cycles)
    return RasterSlice(
        spec=spec,
        horizon=horizon,
        labels=["undecided", "escaping", *cyc_labels],
        codes=codes.reshape(res, res),
        escape_steps=esc.reshape(res, res),
    )


def _pixel_rows(raster: RasterSlice, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of raster_to_pixels(raster)."""
    codes, esc = raster.codes[lo:hi], raster.escape_steps[lo:hi]
    px = np.zeros(codes.shape, dtype=np.uint8)
    escaping = codes == 1
    scaled = 1 + (253 * esc) // raster.horizon
    px[escaping] = np.clip(scaled[escaping], 1, 254).astype(np.uint8)
    px[codes >= 2] = 255
    return px


def raster_to_pixels(raster: RasterSlice) -> np.ndarray:
    """8-bit encoding: undecided 0, escaping 1..254 by scaled escape time,
    any cycle basin 255.  The horizon is at least 1, as render_slice
    requires.  Encoded in render_slice's bands, so the int32 temporaries
    are band-sized."""
    res = raster.spec.resolution
    px = np.empty((res, res), dtype=np.uint8)
    for lo, hi in _band_rows(res):
        px[lo:hi] = _pixel_rows(raster, lo, hi)
    return px


def write_p5(raster: RasterSlice, path: str) -> tuple[str, str]:
    """Write the raster as a binary P5 pixmap plus a JSON sidecar.

    Returns (pixmap_path, sidecar_path).
    """
    res = raster.spec.resolution
    with open(path, "wb") as fh:
        fh.write(f"P5\n{res} {res}\n255\n".encode("ascii"))
        for lo, hi in _band_rows(res):  # the pixel bytes, band by band
            fh.write(_pixel_rows(raster, lo, hi).tobytes())
    sidecar = {
        "plane": raster.spec.plane,
        "center": [raster.spec.center.real, raster.spec.center.imag],
        "extent": raster.spec.extent,
        "resolution": res,
        "at": [complex(raster.spec.at).real, complex(raster.spec.at).imag],
        "horizon": raster.horizon,
        "labels": raster.labels,
        "encoding": {
            "0": "undecided",
            "1-254": "escaping, scaled escape time",
            "255": "cycle basin",
        },
    }
    side_path = path + ".json"
    with open(side_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path, side_path


# ---------------------------------------------------------------------------
# winding verification of disk images


@dataclass
class WindingCheck:
    """Outcome of one boundary-mapping inclusion test."""

    verdict: bool
    winding_min: int
    distance_margin: float  # min |curve - center| / radius - 1
    samples: int
    max_gap: float


def _fiber_push(map: SkewProductMap, z0: complex, pts: np.ndarray, n: int) -> np.ndarray:
    """Map fiber points over base z0 through n steps of the skew product.

    pts is not written to, but for n = 0 it is returned as is."""
    w = pts
    z = complex(z0)
    for _ in range(n):
        w = map.fiber_value(z, w)
        z = map.lam * z
    return w


def _ring(curve: np.ndarray, p: complex, angles: np.ndarray) -> tuple[float, int]:
    """(min |curve - p|, winding number about p of the closed polygon curve).

    The winding is 0 when the curve touches p: no certification possible.
    One pass in blocks of BLOCK points; each block's rel = curve - p starts
    with its predecessor, the wrap-around one for the first block.  The
    angle of rel[k] / rel[k - 1] lands in (-pi, pi], so the increments are
    exact as long as consecutive points subtend less than a half turn.  They
    go to angles[:len(curve)], the wrap-around one first, and one np.sum
    adds them, so the sum is bitwise np.sum(np.angle(rel / np.roll(rel, 1))).
    """
    m = len(curve)
    mins = []
    for lo in range(0, m, BLOCK):
        hi = min(lo + BLOCK, m)
        rel = np.empty(hi - lo + 1, dtype=complex)
        np.subtract(curve[lo - 1:lo] if lo else curve[-1:], p, out=rel[:1])
        np.subtract(curve[lo:hi], p, out=rel[1:])
        mins.append(np.abs(rel).min())
        if mins[-1] != 0.0:  # else a zero divisor; the winding is 0 anyway
            ratio = rel[1:] / rel[:-1]
            np.arctan2(ratio.imag, ratio.real, out=angles[lo:hi])
    dmin = float(np.min(mins))
    if dmin == 0.0:
        return dmin, 0
    return dmin, int(round(float(np.sum(angles[:m])) / (2.0 * math.pi)))


class _UnitCircle:
    """The unit-circle points that each boundary ladder level adds.

    Level 0 is exp(1j linspace(0, 2 pi, L0, endpoint=False)) and level
    k >= 1 is exp(1j arange(1, 2L, 2) (2 pi / 2L)) with L = L0 2^(k-1), the
    odd angles that double level k - 1.  None of it depends on the disk, so
    one instance serves every ladder of the process and evaluates each level
    once per L0, not once per (disk, n) key.  It holds the levels of one L0:
    a new L0 drops them.  Ladders refine no level past SAMPLE_CAP points in
    all, so neither does this cache: at most SAMPLE_CAP complex points.  A
    level k >= 1 is evaluated in blocks of BLOCK angles.
    """

    def __init__(self):
        self.samples = None
        self.levels: list[np.ndarray] = []

    def points(self, samples: int, k: int) -> np.ndarray:
        """Level k's new points for L0 = samples, as a read-only array."""
        if samples != self.samples:
            self.samples, self.levels = samples, []
        while len(self.levels) <= k:
            if not self.levels:
                theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
                pts = np.exp(1j * theta)
            else:
                half = samples << (len(self.levels) - 1)  # points so far
                pts = np.empty(half, dtype=complex)
                for lo in range(0, half, BLOCK):
                    hi = min(lo + BLOCK, half)
                    theta = np.arange(2 * lo + 1, 2 * hi, 2) * (2.0 * math.pi / (2 * half))
                    np.exp(1j * theta, out=pts[lo:hi])
            pts.flags.writeable = False
            self.levels.append(pts)
        return self.levels[k]


_UNIT_CIRCLE = _UnitCircle()


class _BoundaryLadder:
    """The nested refinements of one disk boundary's image.

    For the key (map, z0, w0, delta, n, L0), level k is the n-step image
    of the circle w0 + delta e^{i theta} at the L = L0 2^k angles
    linspace(0, 2 pi, L, endpoint=False).  Those angles nest: level k's
    angles are the even-indexed angles of level k + 1, bit for bit, and
    its odd-indexed ones are arange(1, 2L, 2) * (2 pi / 2L), also bit for
    bit (both are integer multiples of a step that halves exactly).  The
    boundary points and the push are elementwise, so a finer level pushes
    only its new odd angles and interleaves them with the level below, and
    a coarser level is a strided view of the finest.  Either way every
    level is bitwise the curve a fresh linspace at that level gives.

    The ladder keeps the finest curve computed so far, and per level its
    max gap and whether it is finite; select with a new key drops them.
    Each refinement writes a new array of its level's size: level k - 1
    goes to the even slots and the new points to the odd ones, then the
    max gap is taken over every edge of the new curve in its own pass, all
    in blocks of BLOCK points.  Its peak is the two levels during that
    copy, 8 + 16 MiB for a refinement to the cap.  A new ladder holds no
    curve, and one that stays at level 0 holds 64 KiB: a buffer sized to
    the cap up front costs several MiB of resident memory although only
    its head is written, because numpy advises transparent huge pages for
    allocations of 4 MiB and more, and where the kernel grants them the
    first write faults in a whole 2 MiB page.  Besides the curve, the
    ladder's memory is the process's shared _UnitCircle and block-sized
    scratch.
    """

    def __init__(self):
        self.map = self.key = self.finest = None
        self.levels: list[tuple[float, bool]] = []  # (max_gap, finite)

    def select(self, map: SkewProductMap, z0: complex, w0: complex, delta: float,
               n: int, samples: int) -> None:
        """Point the ladder at a boundary; a changed key starts it afresh.
        Level 0 must fit the cap and carry at least MIN_BOUNDARY_SAMPLES."""
        if not MIN_BOUNDARY_SAMPLES <= samples <= SAMPLE_CAP:
            raise PreconditionViolated(
                f"need {MIN_BOUNDARY_SAMPLES} <= boundary_samples <= {SAMPLE_CAP}, "
                f"got {samples}")
        key = (z0, w0, delta, n, samples)
        if map is not self.map or key != self.key:
            self.map, self.key = map, key
            self.finest, self.levels = None, []

    def samples(self, k: int) -> int:
        return self.key[-1] << k

    def level(self, k: int) -> tuple[float, bool]:
        """(max_gap, finite) of level k, refining up to it."""
        while len(self.levels) <= k:
            self._refine()
        return self.levels[k]

    def curve(self, k: int) -> np.ndarray:
        """Level k as a strided view of the finest curve.  No refinement
        writes to an existing curve, so the view keeps its values."""
        return self.finest[::len(self.finest) // self.samples(k)]

    def _refine(self) -> None:
        z0, w0, delta, n, samples = self.key
        k = len(self.levels)
        unit = _UNIT_CIRCLE.points(samples, k)
        m = len(unit)
        # new point j goes to slot first + step j; level k - 1 to the even ones
        first, step = (1, 2) if k else (0, 1)
        size = step * m
        curve = np.empty(size, dtype=complex)
        if k:
            curve[::2] = self.finest
        # level k - 1 is released before the push; its even-slot copy
        # serves every level below k
        self.finest = curve
        finite = not self.levels or self.levels[-1][1]
        for lo in range(0, m, BLOCK):
            hi = min(lo + BLOCK, m)
            new = _fiber_push(self.map, z0, w0 + delta * unit[lo:hi], n)
            curve[first + step * lo:first + step * hi:step] = new
            finite = finite and bool(np.all(np.isfinite(new)))
        max_gap = math.nan
        if finite:
            # every edge of the closed polygon: the wrap-around one, then
            # per block the edges into its points from their predecessors
            max_gap = float(np.abs(curve[:1] - curve[-1:])[0])
            for lo in range(0, size, BLOCK):
                seg = curve[max(lo - 1, 0):lo + BLOCK]
                max_gap = max(max_gap, float(np.abs(seg[1:] - seg[:-1]).max()))
        self.levels.append((max_gap, finite))


def disk_image_contains_ball(
    map: SkewProductMap,
    z0: complex,
    w0: complex,
    delta: float,
    n: int,
    center: complex,
    radius: float,
    boundary_samples: int = MIN_BOUNDARY_SAMPLES,
    *,
    _ladder: _BoundaryLadder | None = None,
) -> WindingCheck:
    """Verify B(center, radius) inside the n-step image of {z0} x B(w0, delta).

    Maps the disk boundary, refines until consecutive image gaps drop below
    radius/10, then requires (a) the sampled image curve to stay farther
    than `radius` from the center and (b) winding number >= 1 about every
    point of the target disk.  Either test failing gives a False verdict;
    a curve the cap cannot resolve raises SamplingCapExceeded instead of
    giving a verdict.  A True verdict certifies the closed polygon through
    the samples, not the image curve between them: the gap rule makes the
    polygon's edges short, but nothing here bounds how far the curve
    strays from an edge, so a curve that bulges into the target disk
    between two samples is not caught.

    Each refinement doubles the sample count.  The curves come from a
    boundary ladder (`_BoundaryLadder`), so a doubling pushes only the new
    half of the points; a caller checking several balls against one disk
    and n (verify_radius_proposition) passes its own ladder as `_ladder`,
    and the later checks reuse every level already pushed.  Without one,
    each call starts a fresh ladder.  Every ladder takes its unit-circle
    points from one per-process cache (`_UnitCircle`), so a new disk or n
    evaluates no exponential.  Results are bitwise the same either way.
    Memory: the ladder's finest curve (two levels while a refinement
    copies), the shared circle's levels up to it, and, once the curve
    resolves, one angle array of its length for the winding passes, plus
    block-sized scratch; the distance and winding passes run in blocks of
    BLOCK points.  boundary_samples may not exceed SAMPLE_CAP, the most points
    any of these arrays holds.

    Every edge of the closed sample polygon is at most max_gap long, so
    every point of it lies within max_gap/2 of a sample.  When the nearest
    sample is farther than radius + max_gap/2 from the center, the closed
    target disk misses the polygon, the polygon's winding number is
    constant on it, and the winding about the center decides (b).  Only in
    the band radius < dmin <= radius + max_gap/2 is (b) checked as the
    minimum over the center and WINDING_PROBES points on the target circle.
    When (a) fails the verdict is False and `winding_min` is the winding
    about the center alone.
    """
    if delta <= 0 or radius <= 0:
        raise PreconditionViolated("delta and radius must be positive")
    z0, w0, center = complex(z0), complex(w0), complex(center)
    ladder = _BoundaryLadder() if _ladder is None else _ladder
    ladder.select(map, z0, w0, delta, n, int(boundary_samples))

    gap_target = radius * GAP_FRACTION
    k = 0
    while True:
        samples = ladder.samples(k)
        max_gap, finite = ladder.level(k)
        if not finite:
            raise SamplingCapExceeded(
                "boundary image leaves double precision range")
        if max_gap < gap_target:
            break
        # gaps shrink linearly in the sample count; bail early when the
        # projected need exceeds the cap instead of doubling all the way
        projected = samples * max_gap / gap_target
        if projected > SAMPLE_CAP:
            # past double range the projection carries no count to report
            need = (f"about {projected:.3g} samples" if math.isfinite(projected)
                    else "a sample count past double range")
            raise SamplingCapExceeded(
                f"resolving gaps {max_gap:.3g} below {gap_target:.3g} needs "
                f"{need} (cap {SAMPLE_CAP})")
        if 2 * samples > SAMPLE_CAP:
            raise SamplingCapExceeded(f"sample cap {SAMPLE_CAP} reached")
        k += 1

    curve = ladder.curve(k)
    angles = np.empty(len(curve))  # scratch of every _ring pass below
    dmin, winding_min = _ring(curve, center, angles)
    distance_ok = dmin > radius
    if distance_ok and dmin - 0.5 * max_gap <= radius:
        # the polygon may cross the target disk: probe its boundary circle
        probes = [center + radius * complex(math.cos(a), math.sin(a))
                  for a in np.linspace(0.0, 2.0 * math.pi, WINDING_PROBES,
                                       endpoint=False)]
        winding_min = min(winding_min,
                          *(_ring(curve, p, angles)[1] for p in probes))
    return WindingCheck(
        verdict=bool(distance_ok and winding_min >= 1),
        winding_min=winding_min,
        distance_margin=dmin / radius - 1.0,
        samples=samples,
        max_gap=max_gap,
    )


# ---------------------------------------------------------------------------
# disk-expansion proposition


@dataclass
class ExpansionStep:
    """Per-step verification record of the disk-expansion report."""

    n: int
    center: complex
    radius: float
    verified: bool
    winding_margin: int | None
    distance_margin: float | None
    link_source: int | None  # certified step the ball was chained from
    samples: int | None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "center": [self.center.real, self.center.imag],
            "radius": self.radius,
            "verified": self.verified,
            "winding_margin": self.winding_margin,
            "distance_margin": self.distance_margin,
            "link_source": self.link_source,
            "samples": self.samples,
        }


@dataclass
class DiskExpansionReport:
    z0: complex
    w0: complex
    delta: float
    lambda0: float
    fitted_constant: float
    one_dimensional: bool
    steps: list[ExpansionStep] = field(default_factory=list)

    @property
    def all_verified(self) -> bool:
        return all(s.verified for s in self.steps)

    def to_json(self) -> dict:
        return {
            "z0": [self.z0.real, self.z0.imag],
            "w0": [self.w0.real, self.w0.imag],
            "delta": self.delta,
            "lambda0": self.lambda0,
            "fitted_constant": self.fitted_constant,
            "one_dimensional": self.one_dimensional,
            "all_verified": self.all_verified,
            "steps": [s.to_json() for s in self.steps],
        }


def _fit_radius(status, n: int, r: float, max_gap0: float) -> float:
    """The fit's search at step n for a largest radius that passes.

    status(n, radius) is "pass", "fail" or "small" (see
    verify_radius_proposition).  The search runs on the grid r 2^j (j >= 0,
    r the radius law at step n, doublings exact in binary floating point)
    and starts at its first radius that level 0 of the step's boundary
    ladder resolves: radius * GAP_FRACTION > max_gap0, level 0's max gap
    (or radius >= 1e6).  From there it halves while the check fails,
    doubles while it passes, and bisects the last bracket 8 times.

    Rule: the answer is the one a search starting at r gives whenever every
    skipped grid radius that the cap can resolve passes, as on every
    configuration measured: both then test the same radii from the first
    failing doubling on.  Were the verdicts ever not monotone in the radius, the answer is
    still a passing radius just below a failing one.  A level 0 that is not
    finite has max_gap0 NaN, so the search starts at r, whose check reports
    "small", and raises PreconditionViolated.
    """
    while r * GAP_FRACTION <= max_gap0 and r < 1e6:
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


def verify_radius_proposition(
    map: SkewProductMap,
    z0: complex,
    w0: complex,
    delta: float,
    lambda0: float,
    n_max: int,
    rho: float = 1e-2,
    fit_n: int = 10,
    link_max: int = 12,
    boundary_samples: int = MIN_BOUNDARY_SAMPLES,
) -> DiskExpansionReport:
    """Fit C on early steps, then certify B(f0^n(w0), C lam0^n delta) inside
    the n-step image of {z0} x B(w0, delta) for every n <= n_max.

    With z0 = 0 the target radii follow the one-dimensional law
    C lam0^n delta^d instead.  Each step's ball is verified by a winding
    test chained from the nearest earlier certified ball (the original disk
    for early n); a step with no verifiable link is recorded unverified and
    later steps chain around it.  A w0 in a fiber cycle basin, or whose
    fiber orbit escapes, is rejected.

    The fit searches each step n <= fit_n for a largest radius passing the
    direct check, on the doubling grid of the radius law, and takes the
    worst ratio to the law.  Each search starts at the grid's first radius
    that level 0 (boundary_samples points) of the step's boundary image
    resolves under the gap rule, not at the law's radius, which can need
    up to SAMPLE_CAP points for a ball far below the radii that decide the
    answer.  The answer is the same whenever the grid radii skipped below
    the start pass the check (see _fit_radius for the rule).

    Every check goes through one boundary ladder owned by this call: the
    fit's bisection over radii at one step n reuses the refinements of
    that step's boundary image, and a check on another disk or n drops
    them, so at most one image curve is held at a time.
    """
    z0, w0 = complex(z0), complex(w0)
    d = map.degree
    if n_max < 1:
        raise PreconditionViolated(f"need n_max >= 1, got {n_max}")
    if fit_n < 1 or link_max < 1:
        raise PreconditionViolated(
            f"need fit_n >= 1 and link_max >= 1, got {fit_n} and {link_max}")
    if not 0.0 < delta < rho:
        raise PreconditionViolated(
            f"need 0 < delta < rho = {rho}, got delta = {delta}")
    if abs(z0) >= delta ** (2 * d):
        raise PreconditionViolated(
            f"need |z0| < delta^(2d) = {delta ** (2 * d):.3g}, got {abs(z0):.3g}")
    if not abs(map.lam) < lambda0 < 1.0:
        raise PreconditionViolated(
            f"need |lambda| < lambda0 < 1, got lambda0 = {lambda0}")
    if find_attracting_cycles(map):
        raise PreconditionViolated(
            "fiber map has an attracting cycle; the expansion claim needs a "
            "cycle-free fiber")
    start_label = classify_point(map, (0.0, w0), horizon=1000)
    if start_label.startswith(("cycle", "parabolic")):
        raise PreconditionViolated(
            f"w0 lies in a fiber cycle basin ({start_label})")
    if start_label == "escaping":
        # the centers f0^n(w0) would leave double range and turn NaN
        raise PreconditionViolated("the fiber orbit of w0 escapes")

    one_dim = z0 == 0
    pow_delta = delta**d if one_dim else delta
    f0 = map.f0()
    targets = f0.orbit(w0, n_max)  # centers are the unperturbed fiber orbit
    ladder = _BoundaryLadder()

    def check(z, src_c, src_r, j: int, n: int, radius: float) -> WindingCheck | None:
        """B(targets[n], radius) inside the j-step image of {z} x B(src_c, src_r),
        or None where the gap rule needs more samples than the cap allows."""
        try:
            return disk_image_contains_ball(
                map, z, src_c, src_r, j, targets[n], radius,
                boundary_samples=boundary_samples, _ladder=ladder)
        except SamplingCapExceeded:
            return None

    def status(n: int, radius: float) -> str:
        """The direct check from the original disk: "pass", "fail" or
        "small" (no verdict: only a larger ball is checkable)."""
        chk = check(z0, w0, delta, n, n, radius)
        return "small" if chk is None else "pass" if chk.verdict else "fail"

    # fit: largest radius passing the direct check at each early step, then
    # take the worst ratio to the radius law across those steps.  The first
    # check of a step pushes its level 0 anyway; reading it first lets the
    # search start where level 0 resolves
    fit_upper = min(fit_n, n_max)
    c_values = []
    for n in range(1, fit_upper + 1):
        ladder.select(map, z0, w0, delta, n, int(boundary_samples))
        r = lambda0**n * pow_delta
        c_values.append(_fit_radius(status, n, r, ladder.level(0)[0]) / r)
    fitted = min(c_values)

    report = DiskExpansionReport(
        z0=z0, w0=w0, delta=delta, lambda0=lambda0,
        fitted_constant=fitted, one_dimensional=one_dim)
    # chain: certified[n] holds the radius of the ball proved inside the
    # n-step image; the original disk seeds the chain at n = 0
    certified: dict[int, float] = {0: delta}
    src_shade = 0.995  # stay strictly inside a certified ball when reusing it
    for n in range(1, n_max + 1):
        radius = fitted * lambda0**n * pow_delta
        best: WindingCheck | None = None
        hit_m = None
        for m in range(n - 1, max(-1, n - 1 - link_max), -1):
            if m not in certified:
                continue
            src_r = certified[m] if m == 0 else certified[m] * src_shade
            src_c = w0 if m == 0 else targets[m]
            chk = check(z0 * map.lam**m, src_c, src_r, n - m, n, radius)
            if chk is None:
                continue
            if chk.verdict:
                best, hit_m = chk, m
                break
            if best is None:
                best, hit_m = chk, m
        verified = best is not None and best.verdict
        report.steps.append(ExpansionStep(
            n=n,
            center=targets[n],
            radius=radius,
            verified=verified,
            winding_margin=None if best is None else best.winding_min,
            distance_margin=None if best is None else best.distance_margin,
            link_source=hit_m if verified else None,
            samples=None if best is None else best.samples,
        ))
        if verified:
            certified[n] = radius
    return report
