"""The fiber polynomial's one Horner evaluator against the loops it replaced.

Each oracle below is a Horner loop, or an X_l step of `measure`, as the
toolkit wrote it before `fiber._poly_eval` served every caller.  It is
kept verbatim apart from the names it calls: `self` of a SkewProductMap
becomes `map`, and the helpers it used carry an `old_` prefix.  The
comparisons are on the IEEE bits of both parts, so a signed zero, an inf
or a NaN that moves is a failure; mpmath values compare by their exact
mantissa and exponent.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc

from skewdyn.core import SkewProductMap
from skewdyn.errors import CriticalHit, RootFindingFailed, SkewdynError
from skewdyn.fiber import FiberMap, _newton, _poly_eval
from skewdyn.measure import _fd, _in_type, _recursion
from skewdyn.measure import _overflow as overflow

# ---------------------------------------------------------------------------
# oracles: the removed code


def old_poly_eval(coeffs, z, monic=None):
    if not coeffs:
        return z * 0
    if monic is None:
        monic = old_monic(coeffs)
    if monic:
        acc, rest = z + coeffs[-2], coeffs[:-2]
    else:
        acc, rest = z * 0 + coeffs[-1], coeffs[:-1]
    for c in reversed(rest):
        acc = acc * z + c
    return acc


def old_monic(coeffs) -> bool:
    if len(coeffs) < 2 or coeffs[-1] != 1:
        return False
    c = complex(coeffs[-2])
    return not any(x == 0 and math.copysign(1.0, x) < 0 for x in (c.real, c.imag))


def old_poly_deriv(coeffs):
    return tuple(j * coeffs[j] for j in range(1, len(coeffs)))


class OldFiberMap:
    def __init__(self, degree, coeffs):
        self.degree, self.coeffs = degree, coeffs

    def __call__(self, w, out=None):
        if out is None:
            acc = w + self.coeffs[-1] if self.degree >= 1 else w * 0 + 1
            for c in reversed(self.coeffs[:-1]):
                acc = acc * w + c
            return acc
        np.add(w, self.coeffs[-1], out=out)
        for c in reversed(self.coeffs[:-1]):
            np.multiply(out, w, out=out)
            np.add(out, c, out=out)
        return out

    def deriv(self, w):
        acc = w * 0 + self.degree
        for i in range(self.degree - 1, 0, -1):
            acc = acc * w + i * self.coeffs[i]
        return acc

    def second_deriv(self, w):
        d = self.degree
        acc = w * 0 + d * (d - 1)
        for i in range(d - 1, 1, -1):
            acc = acc * w + i * (i - 1) * self.coeffs[i]
        return acc

    def critical_points(self):
        high_to_low = [complex(self.degree)]
        for i in range(self.degree - 1, 0, -1):
            high_to_low.append(complex(i) * complex(self.coeffs[i]))
        roots = np.roots(high_to_low) if self.degree > 1 else np.array([])
        refined = []
        for r in roots:
            w, _ = _newton(lambda v: (self.deriv(v), self.second_deriv(v)),
                           complex(r), 60)
            if abs(self.deriv(w)) > 1e-8:
                raise RootFindingFailed(
                    f"critical point refinement stalled at {w!r}, residual {abs(self.deriv(w)):.3e}"
                )
            refined.append(w)
        return refined


def old_fiber_value(map, z, w, out=None):
    def coeff_at(i, z):
        return old_poly_eval(map.fiber_coeffs[i], z, old_monic(map.fiber_coeffs[i]))

    if out is None:
        if map.mode == "unicritical":
            return w**map.degree + coeff_at(0, z)
        acc = w * 0 + 1
        for i in range(map.degree - 1, -1, -1):
            acc = acc * w + coeff_at(i, z)
        return acc
    if map.mode == "unicritical":
        if map.degree == 2:
            np.square(w, out=out)
        else:
            np.power(w, map.degree, out=out)
        return np.add(out, coeff_at(0, z), out=out)
    np.multiply(w, 0, out=out)
    np.add(out, 1, out=out)
    for i in range(map.degree - 1, -1, -1):
        np.multiply(out, w, out=out)
        np.add(out, coeff_at(i, z), out=out)
    return out


def old_denominators(map, z0, l, num, visit=None):
    coeffs = tuple(num(c) for c in map.fiber_coeffs[0])
    monic = old_monic(coeffs)
    lam = num(map.lam)
    d = map.degree
    xi = num(0)
    denom = num(1)
    lam_pow = num(1)
    factor = d * xi ** (d - 1)
    z0 = num(z0)
    try:
        for j in range(l):
            zj = lam_pow * z0
            extra = () if visit is None else visit(lam_pow, zj, xi, denom, factor)
            xi = xi**d + old_poly_eval(coeffs, zj, monic)
            lam_pow *= lam
            if j < l - 1:
                factor = d * xi ** (d - 1)
                if factor == 0:
                    raise CriticalHit(j + 1)
                denom *= factor
            if num is complex and not all(cmath.isfinite(v) for v in (xi, *extra, denom)):
                raise OverflowError  # products overflow silently, powers raise
    except OverflowError:
        raise overflow(j + 1) from None
    return denom


def old_recursion(map, z0, l, num):
    dcoeffs = old_poly_deriv(tuple(num(c) for c in map.fiber_coeffs[0]))
    monic = old_monic(dcoeffs)
    x = num(0)
    sum_form = num(0)

    def visit(lam_pow, zj, xi, denom, factor):
        nonlocal x, sum_form
        cp = old_poly_eval(dcoeffs, zj, monic)
        sum_form += lam_pow * cp / denom
        x = factor * x + lam_pow * cp
        return (x,)

    denom = old_denominators(map, z0, l, num, visit)
    return x, denom, sum_form


def old_fd(map, z0, l, h, num):
    coeffs = tuple(num(c) for c in map.fiber_coeffs[0])
    monic = old_monic(coeffs)
    lam = num(map.lam)
    d = map.degree

    def xi(z):
        w = num(0)
        try:
            for j in range(l):
                w = w**d + old_poly_eval(coeffs, z, monic)
                z = z * lam
                if num is complex and not cmath.isfinite(w):
                    raise OverflowError
        except OverflowError:
            raise overflow(j + 1) from None
        return w

    z0, h = num(z0), num(h)
    return complex((xi(z0 + h) - xi(z0 - h)) / (2 * h))


# ---------------------------------------------------------------------------
# comparison


def key(value):
    """Exact identity of a result: IEEE bytes for doubles (arrays and
    scalars), (mantissa, exponent) tuples for mpmath, recursively."""
    if isinstance(value, (tuple, list)):
        return tuple(key(v) for v in value)
    if isinstance(value, mpc):
        return value.real._mpf_, value.imag._mpf_
    a = np.asarray(value, dtype=complex)
    return a.shape, a.tobytes()


def outcome(fn, *args, **kwargs):
    """key(fn(...)), or the exception's type and message."""
    with np.errstate(all="ignore"):
        try:
            return key(fn(*args, **kwargs))
        except (ArithmeticError, SkewdynError, np.linalg.LinAlgError) as exc:
            return type(exc).__name__, str(exc)


def same(new, old, *args):
    """new and old on the same arguments, with every array argument
    passed as a fresh copy so neither sees the other's writes."""
    def fresh():
        return [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    assert outcome(new, *fresh()) == outcome(old, *fresh())


SENTINEL = 7.0 - 3.0j  # what out holds before a call: a step must overwrite it


def same_out(new, old, *args):
    """new and old writing into out arrays that start at SENTINEL."""
    shape = np.shape(args[-1])

    def call(fn):
        out = np.full(shape, SENTINEL)
        got = fn(*[a.copy() if isinstance(a, np.ndarray) else a for a in args], out=out)
        assert got is out
        return out

    assert outcome(call, new) == outcome(call, old)


# ---------------------------------------------------------------------------
# strategies

INF, NAN = math.inf, math.nan
PARTS = [0.0, -0.0, 1.0, -1.0, 0.3, -2.5, 1e300, -1e300, 1e-310, -1e-310, 1.7e308, 5e-324]
POINTS = [complex(a, b) for a in PARTS for b in PARTS]
part = st.one_of(st.sampled_from(PARTS), st.floats(-4.0, 4.0))
moderate_part = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-2.0, 2.0))
wild_part = st.one_of(part, st.sampled_from([INF, -INF, NAN]))
coeff = st.builds(complex, part, part)
moderate = st.builds(complex, moderate_part, moderate_part)
point = st.builds(complex, wild_part, wild_part)
finite_point = st.builds(complex, part, part)
degree = st.integers(2, 8)


@st.composite
def fiber_maps(draw, coefficient=coeff):
    d = draw(degree)
    return d, tuple(draw(st.lists(coefficient, min_size=d, max_size=d)))


@st.composite
def skew_maps(draw, mode, coefficient=coeff):
    """A SkewProductMap made directly, without build_map's normalization,
    so every coefficient part reaches the evaluator as drawn."""
    d = draw(degree)
    polys = st.lists(coefficient, min_size=1, max_size=3).map(tuple)
    if mode == "general":
        coeffs = tuple(draw(polys) for _ in range(d))
    else:
        coeffs = (draw(polys),) + ((0j,),) * (d - 1)
    return SkewProductMap(lam=draw(coefficient.filter(lambda c: c != 0)), degree=d,
                          mode=mode, fiber_coeffs=coeffs, k=1, r0=0.5,
                          escape_radius=2.0)


# ---------------------------------------------------------------------------
# FiberMap: f0, f0', f0'' and the critical-point polynomial


@settings(max_examples=300)
@given(fm=fiber_maps(), w=point)
# c_6 and c_7 of a degree-8 map, where 6 * (7 * c) != 42 * c
@example(fm=(8, (0j,) * 6 + (0.1 + 0.3j, 0.1 + 0.3j)), w=0.7 - 0.2j)
def test_fiber_map_scalars(fm, w):
    new, old = FiberMap(*fm), OldFiberMap(*fm)
    for method in ("__call__", "deriv", "second_deriv"):
        same(getattr(new, method), getattr(old, method), w)


@settings(max_examples=150)
@given(fm=fiber_maps(), ws=st.lists(point, min_size=1, max_size=6))
def test_fiber_map_arrays(fm, ws):
    new, old = FiberMap(*fm), OldFiberMap(*fm)
    w = np.array(ws, dtype=complex)
    for method in ("__call__", "deriv", "second_deriv"):
        same(getattr(new, method), getattr(old, method), w)
    same_out(new, old, w)


@pytest.mark.parametrize("top", [complex(-0.0, 0.5), complex(0.5, -0.0), complex(-0.0, -0.0)])
@pytest.mark.parametrize("d", [2, 3])
def test_fiber_map_keeps_the_short_start_on_negative_zeros(d, top):
    # _monic refuses these tops, but f0 always started from w + c_{d-1}.
    # The lower coefficients are -0.0 in both parts: any nonzero part
    # there would wash out the sign of a zero that the start leaves
    fm = (d, (complex(-0.0, -0.0),) * (d - 1) + (top,))
    new, old = FiberMap(*fm), OldFiberMap(*fm)
    w = np.array(POINTS)
    same(new, old, w)
    same_out(new, old, w)
    for p in POINTS:
        same(new, old, p)


@settings(max_examples=100)
@given(fm=fiber_maps(moderate))
def test_critical_points(fm):
    same(FiberMap(*fm).critical_points, OldFiberMap(*fm).critical_points)


# ---------------------------------------------------------------------------
# the evaluator itself and SkewProductMap.fiber_value


@settings(max_examples=200)
@given(coeffs=st.lists(coeff, min_size=1, max_size=9).map(tuple),
       monic=st.sampled_from([None, False, True]), w=point,
       ws=st.lists(point, min_size=1, max_size=5))
def test_poly_eval(coeffs, monic, w, ws):
    if monic and len(coeffs) < 2:
        monic = None
    same(_poly_eval, old_poly_eval, coeffs, w, monic)
    z = np.array(ws, dtype=complex)
    same(_poly_eval, old_poly_eval, coeffs, z, monic)

    def new_out(coeffs, monic, z, out):
        return _poly_eval(coeffs, z, monic, out)

    def old_out(coeffs, monic, z, out):
        # the two out loops the evaluator replaced: f0's for the short
        # start, general-mode fiber_value's (its leading 1 generalized) for
        # the long one.  Not the operator form: numpy's in-place multiply of
        # a length-1 array rounds apart from its vector loop
        if old_monic(coeffs) if monic is None else monic:
            return OldFiberMap(len(coeffs) - 1, coeffs[:-1])(z, out=out)
        np.multiply(z, 0, out=out)
        np.add(out, coeffs[-1], out=out)
        for c in reversed(coeffs[:-1]):
            np.multiply(out, z, out=out)
            np.add(out, c, out=out)
        return out

    same_out(new_out, old_out, coeffs, monic, z)


@settings(max_examples=200)
@given(map=skew_maps("general"), z=point, w=point)
def test_general_fiber_value_scalars(map, z, w):
    same(map.fiber_value, lambda z, w: old_fiber_value(map, z, w), z, w)


@settings(max_examples=200)
@given(map=st.sampled_from(["general", "unicritical"]).flatmap(skew_maps),
       zs=st.lists(point, min_size=1, max_size=5),
       ws=st.lists(point, min_size=1, max_size=5), shared=st.booleans())
def test_fiber_value_arrays(map, zs, ws, shared):
    w = np.array(ws, dtype=complex)
    # one base point per orbit, or one shared by every orbit
    z = np.array(zs[:1] if shared else (zs * len(ws))[:len(ws)], dtype=complex)
    same(map.fiber_value, lambda z, w: old_fiber_value(map, z, w), z, w)
    same_out(map.fiber_value, lambda z, w, out: old_fiber_value(map, z, w, out), z, w)


@settings(max_examples=200)
@given(map=skew_maps("unicritical"), z=finite_point, w=finite_point)
def test_unicritical_fiber_value_scalars(map, z, w):
    # Python's complex power raises on overflow: both must raise alike
    same(map.fiber_value, lambda z, w: old_fiber_value(map, z, w), z, w)


# ---------------------------------------------------------------------------
# measure's X_l recursion and finite difference on the map's own methods


@settings(max_examples=60)
@given(map=skew_maps("unicritical", moderate),
       z0=moderate.filter(lambda z: z != 0).map(lambda z: 0.2 * z),
       l=st.integers(1, 12))
def test_measure_recursion_and_difference(map, z0, l):
    assert _in_type(map, complex) is map
    h = 1e-9 * abs(z0)
    for num in (complex, mpc):
        with mp.workdps(60):
            same(_recursion, old_recursion, map, z0, l, num)
            same(_fd, old_fd, map, z0, l, h, num)
