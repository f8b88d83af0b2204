"""Fatou-structure probes: orbit classification, raster slices, and
winding-number verification of vertical disk expansion.

Classification is a three-way label (escaping, cycle basin, undecided);
undecided is honest output, not failure.  The disk-expansion verifier
certifies that a shrinking ball around the fiber orbit stays inside the
image of a vertical disk.  Direct boundary mapping only works while the
image curve is short; past that the verifier chains: each step's ball is
verified inside the image of a nearby earlier certified ball, so every
boundary curve that needs resolving spans only a few map applications.
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
from .fiber import Cycle

CYCLE_TOL = 1e-6
CYCLE_RUN = 50  # consecutive near-cycle steps before labeling
PARABOLIC_TOL = 1e-3
MIN_BOUNDARY_SAMPLES = 4096
SAMPLE_CAP = 2**20
GAP_FRACTION = 0.1  # consecutive image gaps must drop below radius/10
WINDING_PROBES = 16


def _cycle_candidates(map: SkewProductMap) -> tuple[list[str], list[Cycle]]:
    """Labels and cycles to classify against: parabolic candidates
    (multiplier within 1e-3 of 1) are labeled apart from true attractors."""
    cycles = find_attracting_cycles(map, include_parabolic=True)
    labels = []
    for j, cyc in enumerate(cycles):
        if abs(cyc.multiplier - 1.0) < PARABOLIC_TOL:
            labels.append(f"parabolic_{j}")
        else:
            labels.append(f"cycle_{j}")
    return labels, cycles


def _classify_block(map: SkewProductMap, z0s, w0s, horizon: int, cycles: list[Cycle]):
    """Vector classification; returns (codes, escape_steps).

    Code 0 = undecided, 1 = escaping, 2+j = basin of cycles[j].
    """
    w = np.asarray(w0s, dtype=complex).ravel()
    m = len(w)
    codes = np.zeros(m, dtype=np.int16)
    esc = np.full(m, -1, dtype=np.int32)
    orbits = _Orbits(map, np.asarray(z0s, dtype=complex).ravel(), w, lam_left=True,
                     carry={"runs": np.zeros((len(cycles), m), dtype=np.int32)})
    pts = [np.array(c.points, dtype=complex) for c in cycles]

    def settle(n: int) -> None:
        out = ~(orbits.absw <= map.escape_radius)  # catches NaN too
        codes[orbits.idx[out]] = 1
        esc[orbits.idx[out]] = n
        orbits.retire(out)
        for j, p in enumerate(pts):
            dmin = np.min(np.abs(orbits.w[:, None] - p[None, :]), axis=1)
            runs = orbits.carry["runs"]
            runs[j] = np.where(dmin < CYCLE_TOL, runs[j] + 1, 0)
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
    z0, w0 = complex(x[0]), complex(x[1])
    if abs(z0) >= map.r0:
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


def render_slice(map: SkewProductMap, spec: SliceSpec, horizon: int = 1000) -> RasterSlice:
    """Classify every pixel center of the requested window."""
    if spec.plane not in ("fiber", "base"):
        raise PreconditionViolated(f"unknown slice plane {spec.plane!r}")
    if spec.resolution < 1 or spec.extent <= 0:
        raise PreconditionViolated("resolution must be >= 1 and extent positive")
    res = spec.resolution
    if spec.plane == "fiber" and abs(spec.at) >= map.r0:
        raise BaseOutsideDomain(
            f"|z0| = {abs(spec.at):.6g} >= r0 = {map.r0:.6g}")

    # pixel centers; row 0 carries the largest imaginary part
    offs = (2.0 * np.arange(res) + 1.0 - res) / res * spec.extent
    re = spec.center.real + offs
    im = spec.center.imag + offs[::-1]
    grid = re[None, :] + 1j * im[:, None]
    if spec.plane == "fiber":
        zs = np.full(res * res, spec.at, dtype=complex)
        ws = grid.ravel()
    else:
        zs = grid.ravel()
        if np.any(np.abs(zs) >= map.r0):
            raise BaseOutsideDomain("base-plane window reaches outside B(0, r0)")
        ws = np.full(res * res, spec.at, dtype=complex)

    cyc_labels, cycles = _cycle_candidates(map)
    codes, esc = _classify_block(map, zs, ws, horizon, cycles)
    return RasterSlice(
        spec=spec,
        horizon=horizon,
        labels=["undecided", "escaping", *cyc_labels],
        codes=codes.reshape(res, res),
        escape_steps=esc.reshape(res, res),
    )


def raster_to_pixels(raster: RasterSlice) -> np.ndarray:
    """8-bit encoding: undecided 0, escaping 1..254 by scaled escape time,
    any cycle basin 255."""
    res = raster.spec.resolution
    px = np.zeros((res, res), dtype=np.uint8)
    escaping = raster.codes == 1
    if raster.horizon > 0:
        scaled = 1 + (253 * raster.escape_steps) // raster.horizon
    else:
        scaled = np.ones_like(raster.escape_steps)
    px[escaping] = np.clip(scaled[escaping], 1, 254).astype(np.uint8)
    px[raster.codes >= 2] = 255
    return px


def write_p5(raster: RasterSlice, path: str) -> tuple[str, str]:
    """Write the raster as a binary P5 pixmap plus a JSON sidecar.

    Returns (pixmap_path, sidecar_path).
    """
    px = raster_to_pixels(raster)
    res = raster.spec.resolution
    with open(path, "wb") as fh:
        fh.write(f"P5\n{res} {res}\n255\n".encode("ascii"))
        fh.write(px.tobytes())
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
    """Map fiber points over base z0 through n steps of the skew product."""
    w = pts.copy()
    z = complex(z0)
    for _ in range(n):
        w = map.fiber_value(z, w)
        z = map.lam * z
    return w


def _winding_number(curve: np.ndarray, p: complex) -> int:
    rel = curve - p
    if float(np.min(np.abs(rel))) == 0.0:
        return 0  # curve touches the probe; no certification possible
    # angle of successive ratios lands in (-pi, pi], so increments are exact
    # as long as consecutive points subtend less than a half turn
    inc = np.angle(rel / np.roll(rel, 1))
    return int(round(float(np.sum(inc)) / (2.0 * math.pi)))


def disk_image_contains_ball(
    map: SkewProductMap,
    z0: complex,
    w0: complex,
    delta: float,
    n: int,
    center: complex,
    radius: float,
    boundary_samples: int = MIN_BOUNDARY_SAMPLES,
) -> WindingCheck:
    """Verify B(center, radius) inside the n-step image of {z0} x B(w0, delta).

    Maps the disk boundary, refines until consecutive image gaps drop below
    radius/10, then requires (a) winding number >= 1 about the target center
    and 16 probes on the target circle, and (b) the image curve to stay
    farther than `radius` from the center.  Either test failing gives a
    False verdict; an unresolvable curve raises SamplingCapExceeded rather
    than ever returning a false positive.
    """
    if boundary_samples < MIN_BOUNDARY_SAMPLES:
        raise PreconditionViolated(
            f"need boundary_samples >= {MIN_BOUNDARY_SAMPLES}, got {boundary_samples}")
    if delta <= 0 or radius <= 0:
        raise PreconditionViolated("delta and radius must be positive")
    z0, w0, center = complex(z0), complex(w0), complex(center)

    samples = int(boundary_samples)
    gap_target = radius * GAP_FRACTION
    while True:
        theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
        curve = _fiber_push(map, z0, w0 + delta * np.exp(1j * theta), n)
        if not np.all(np.isfinite(curve)):
            raise SamplingCapExceeded(
                "boundary image leaves double precision range")
        gaps = np.abs(curve - np.roll(curve, 1))
        max_gap = float(gaps.max())
        if max_gap < gap_target:
            break
        # gaps shrink linearly in the sample count; bail early when the
        # projected need exceeds the cap instead of doubling all the way
        projected = samples * max_gap / gap_target
        if projected > SAMPLE_CAP:
            raise SamplingCapExceeded(
                f"resolving gaps {max_gap:.3g} below {gap_target:.3g} needs "
                f"about {projected:.3g} samples (cap {SAMPLE_CAP})")
        samples *= 2
        if samples > SAMPLE_CAP:
            raise SamplingCapExceeded(f"sample cap {SAMPLE_CAP} reached")

    dmin = float(np.min(np.abs(curve - center)))
    distance_ok = dmin > radius
    probes = [center] + [
        center + radius * complex(math.cos(a), math.sin(a))
        for a in np.linspace(0.0, 2.0 * math.pi, WINDING_PROBES, endpoint=False)
    ]
    winding_min = min(_winding_number(curve, p) for p in probes)
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


def _link(map, z0, m, src_c, src_r, j, center, radius, samples):
    """One chain link: target ball inside the j-step image of the source
    disk over base lam^m z0.  Returns a WindingCheck or None on cap."""
    try:
        return disk_image_contains_ball(
            map, z0 * map.lam**m, src_c, src_r, j, center, radius,
            boundary_samples=samples)
    except SamplingCapExceeded:
        return None


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
    later steps chain around it.
    """
    z0, w0 = complex(z0), complex(w0)
    d = map.degree
    if n_max < 1:
        raise PreconditionViolated(f"need n_max >= 1, got {n_max}")
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

    one_dim = z0 == 0
    pow_delta = delta**d if one_dim else delta
    f0 = map.f0()
    targets = f0.orbit(w0, n_max)  # centers are the unperturbed fiber orbit

    def status(n: int, radius: float) -> str:
        """"pass" / "fail" (geometry rejects) / "small" (the gap rule needs
        more samples than the cap allows, so only a larger ball is checkable)."""
        try:
            chk = disk_image_contains_ball(
                map, z0, w0, delta, n, targets[n], radius,
                boundary_samples=boundary_samples)
        except SamplingCapExceeded:
            return "small"
        return "pass" if chk.verdict else "fail"

    # fit: largest radius passing the direct check at each early step, then
    # take the worst ratio to the radius law across those steps
    fit_upper = min(fit_n, n_max)
    c_values = []
    for n in range(1, fit_upper + 1):
        r = lambda0**n * pow_delta
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
        c_values.append(lo / (lambda0**n * pow_delta))
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
            chk = _link(map, z0, m, src_c, src_r, n - m, targets[n], radius,
                        boundary_samples)
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
