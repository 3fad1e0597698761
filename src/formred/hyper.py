"""Geometry of the upper half-plane.

Points are t + iu with u > 0.  The hyperbolic centroid of a root set is
returned as such a point, computed from its closed form: psi, the
(1/y)-weighted mean, of x and of |z - t|^2.  psi is exact (rational)
whenever its inputs are, so lattice-point databases get exact t-coordinates
and only the final square root is a float.  Its exact weights
prod_{k!=i} y_k have one kernel, shared with dbgen's blocks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ConvergenceError, DomainError
from .forms import UnimodularMatrix


def _exact(v) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


@dataclass(frozen=True)
class UhpPoint:
    """Point t + iu of the upper half-plane; u > 0."""

    t: object
    u: object

    def __post_init__(self):
        t, u = self.t, self.u
        if not _exact(t):
            t = float(t)
        if not _exact(u):
            u = float(u)
        if t - t or u - u:  # nan for a nan or infinite float, else 0
            raise ValueError(f"coordinates must be finite, got {t}, {u}")
        if u <= 0:
            raise ValueError(f"imaginary part must be positive, got {u}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "u", u)


def nint(x, mode: str = "away") -> int:
    """Round to the nearest integer; `mode` picks the half-way convention:
    'away' (default) from zero, 'even' banker's, 'zero' toward zero,
    'up' toward +infinity, 'up-2dp' half-up after a 2-decimal pre-round
    (the convention of the reference comparison runs).  Exact, also for
    floats (their binary expansion): `_nint_ratio` of x.as_integer_ratio(),
    through Fraction(x) for a number without that method."""
    if not hasattr(x, "as_integer_ratio"):
        x = Fraction(x)
    return _nint_ratio(*x.as_integer_ratio(), mode)


def _nint_ratio(num, den, mode: str):
    """Nearest integer of num/den (den > 0) in integer arithmetic only, so
    the same formula serves Python ints and int64 or object numpy arrays,
    whose dtype the result keeps.

    'up-2dp' is floor(round(t, 2) + 1/2), t the double nearest num/den:
    cents c = (200 num + den) // (2 den), then (c + 50) // 100.  Off the
    half cents, which are 1/(200 den) away, t has the same cents while
    200 |num| and den are below 2^53; of the half cents only h + 0.495
    decides the shift, by the double nearest it (`_below_half`), per row."""
    if mode == "up-2dp":
        scaled, twice = 200 * num + den, 2 * den
        cents = scaled // twice
        shift = (cents + 50) // 100
        edge = (cents * twice == scaled) & (cents - 100 * shift == -50)
        if isinstance(shift, int):
            return shift - (edge and _below_half(shift - 1))
        for i in zip(*edge.nonzero()):
            shift[i] -= _below_half(int(shift[i]) - 1)
        return shift
    sign = 1 - 2 * (num < 0)
    if mode == "away":
        return sign * ((2 * abs(num) + den) // (2 * den))
    if mode == "zero":
        return sign * ((2 * abs(num) + den - 1) // (2 * den))
    if mode == "up":
        return (2 * num + den) // (2 * den)
    if mode == "even":
        q = num // den
        r = num - q * den
        return q + (2 * r > den) + ((2 * r == den) & (q % 2 == 1))
    raise ValueError(f"unknown rounding mode {mode!r}")


def _below_half(h: int) -> bool:
    # whether the double nearest h + 0.495 (int / int) rounds to h + 0.49
    return round((200 * h + 99) / 200, 2) != h + 0.5


def mobius(M: UnimodularMatrix, z: UhpPoint) -> UhpPoint:
    """Direct fractional-linear map w = (a*z + b)/(c*z + d)."""
    if M.c == 0:
        # a*d = 1 forces a = d = +-1, so this is the exact translation z + b*d
        return UhpPoint(z.t + M.b * M.d, z.u)
    t, u = float(z.t), float(z.u)
    den = (M.c * t + M.d) ** 2 + (M.c * u) ** 2
    wt = ((M.a * t + M.b) * (M.c * t + M.d) + M.a * M.c * u * u) / den
    return UhpPoint(wt, u / den)


def right_action(z: UhpPoint, M: UnimodularMatrix) -> UhpPoint:
    """The right action z*M = M^{-1}(z) used throughout the reduction theory."""
    return mobius(M.inverse(), z)


def dist_h(z: UhpPoint, w: UhpPoint) -> float:
    """Hyperbolic distance, via cosh d = 1 + |z - w|^2 / (2 * Im z * Im w)."""
    dt = float(z.t) - float(w.t)
    du = float(z.u) - float(w.u)
    arg = 1.0 + (dt * dt + du * du) / (2.0 * float(z.u) * float(w.u))
    return math.acosh(max(1.0, arg))


def _inverse_y_weights(ys: Sequence):
    """Unnormalized (1/y) weights w_i = prod_{k!=i} y_k and their sum, by
    prefix and suffix products without division, so the same code serves
    ints, Fractions and numpy columns (one row per point set)."""
    w, acc = [], 1
    for y in ys:
        w.append(acc)
        acc = acc * y
    acc = 1
    for i in reversed(range(len(w))):
        w[i], acc = w[i] * acc, acc * ys[i]
    return w, sum(w)


def psi(x: Sequence, y: Sequence):
    """The (1/y)-weighted mean of x: sum_i (prod_{k!=i} y_k / s_{n-1}) x_i.

    Exact (Fraction) when every input is exact, float otherwise.  The value
    always lies in [min x, max x]."""
    if len(x) != len(y):
        raise ValueError("x and y must have the same length")
    if not x:
        raise ValueError("psi of empty vectors")
    if any(v <= 0 for v in y):
        raise ValueError("weights y must be positive")
    if all(_exact(v) for v in x) and all(_exact(v) for v in y):
        w, s = _inverse_y_weights(y)
        return Fraction(sum(wi * xi for wi, xi in zip(w, x)), 1) / s
    w = [1.0 / float(v) for v in y]
    return sum(wi * float(xi) for wi, xi in zip(w, x)) / sum(w)


def center_of_mass(points: Sequence[UhpPoint]) -> UhpPoint:
    """Coordinatewise arithmetic mean of the points."""
    if not points:
        raise ValueError("center of mass of no points")
    n = len(points)
    ts = [p.t for p in points]
    us = [p.u for p in points]
    if all(_exact(v) for v in ts + us):
        return UhpPoint(Fraction(sum(ts), n), Fraction(sum(us), n))
    return UhpPoint(sum(float(v) for v in ts) / n, sum(float(v) for v in us) / n)


# The root size past which |z|^2 may overflow the doubles: the Julia solve
# scales roots beyond it down by a power of two, and the centroid an exact
# u^2 past the doubles down below it by a power of four
_BIG_ROOT = 2 ** 500


def _big_exponent(v) -> int:
    """The least e >= 0 with v < 2^e _BIG_ROOT, for a float, int or Fraction
    v: the bit length of floor(v / _BIG_ROOT), computed exactly."""
    return int(v // _BIG_ROOT).bit_length()


def hyperbolic_centroid(points: Sequence[UhpPoint]) -> UhpPoint:
    """The unique minimizer of sum_j ((t-x_j)^2 + (u-y_j)^2) / (u*y_j).

    Closed form: t = psi(x, y) and u^2 = psi(|z - t|^2, y), the mean squared
    distance to t, as in `julia._julia_start`.  Each term is at least
    y_k^2 > 0, so u^2 does not cancel for roots far from 0, as
    psi(|z|^2, y) - t^2 does; both are the same rational for exact points.
    Where u^2 is past the doubles, as for the roots +-2^512 i of
    x^2 + (2^1024 - 2^970 - 1) y^2, float points take the exact closed form
    on their values (each double is a Fraction), and exact points give
    u = 2^e sqrt(u^2 / 4^e) with 4^-e u^2 below _BIG_ROOT (`_big_exponent`):
    a power of two scales u exactly.  DomainError when u itself is past the
    doubles."""
    if not points:
        raise ValueError("centroid of no points")
    xs = [p.t for p in points]
    ys = [p.u for p in points]
    t = psi(xs, ys)
    usq = psi([(x - t) * (x - t) + y * y for x, y in zip(xs, ys)], ys)
    if usq <= sys.float_info.max:  # false for an infinite or nan float
        return UhpPoint(t, math.sqrt(usq))
    if not isinstance(usq, Fraction):
        c = hyperbolic_centroid([UhpPoint(Fraction(x), Fraction(y))
                                 for x, y in zip(xs, ys)])
        return UhpPoint(float(c.t), c.u)
    e = (_big_exponent(usq) + 1) // 2
    try:
        return UhpPoint(t, math.ldexp(math.sqrt(usq / 4 ** e), e))
    except OverflowError:
        raise DomainError("the centroid height is past the doubles") from None


def centroid_from_factors(a: Sequence, b: Sequence) -> UhpPoint:
    """Centroid of the roots of prod_i (X^2 + a_i*X*Z + b_i*Z^2).

    Each factor must be positive definite (4*b_i > a_i^2); its root pair is
    (-a_i/2, d_i/2) with d_i = sqrt(4*b_i - a_i^2), and the centroid is
    hyperbolic_centroid of those points (u^2 = psi(|z - t|^2, y)).  The
    tests check it against the explicit u^2 double-sum formula in the d_i
    and a_i."""
    if len(a) != len(b):
        raise ValueError("factor vectors must have the same length")
    if not a:
        raise ValueError("no factors")
    ds = []
    for ai, bi in zip(a, b):
        disc = 4 * bi - ai * ai
        if disc <= 0:
            raise DomainError(f"factor x^2 + {ai}xz + {bi}z^2 is not positive definite")
        if _exact(disc):
            r = math.isqrt(int(disc)) if isinstance(disc, int) else None
            if r is not None and r * r == disc:
                ds.append(r)
                continue
        ds.append(math.sqrt(float(disc)))
    points = []
    for ai, di in zip(a, ds):
        x = Fraction(-ai, 2) if _exact(ai) else -float(ai) / 2
        y = Fraction(di, 2) if _exact(di) else float(di) / 2
        points.append(UhpPoint(x, y))
    return hyperbolic_centroid(points)


def reduce_to_fundamental(z: UhpPoint):
    """Move z into |Re| <= 1/2, |z| >= 1 by translations and inversions.

    Returns (z', M) where z' = mobius(M.inverse(), z); equivalently z' is the
    right action of M on z, so transform(f, M) is the reduced form when z is
    the zero of f.  Boundary points are normalized to the Re >= 0
    representative.  The product N = M^-1 of the steps is kept as its four
    integer entries, (a, b, c, d) -> (a - m c, b - m d, c, d) for the
    translation by -m and -> (-c, -d, a, b) for the inversion S, and M is
    built once at the end, its determinant 1 checked there."""
    t, u = z.t, z.u
    a, b, c, d = 1, 0, 0, 1
    for _ in range(10000):
        m = nint(t, "away")
        if m != 0:
            t = t - m
            a, b = a - m * c, b - m * d
        normsq = t * t + u * u
        if normsq < 1:
            t, u, scale, e = float(t), float(u), float(normsq), 0
            if scale < sys.float_info.min:
                # t^2 + u^2 is 0 or subnormal: invert 2^-e z, then scale back
                e = math.frexp(max(abs(t), u))[1]
                t, u = math.ldexp(t, -e), math.ldexp(u, -e)
                scale = t * t + u * u
            t = math.ldexp(-t / scale, -e)
            u = math.ldexp(u / scale, -e)
            a, b, c, d = -c, -d, a, b
        else:
            break
    else:
        raise ConvergenceError(f"fundamental-domain reduction did not settle for {z}")
    if 2 * t == -1:
        t = t + 1
        a, b = a + c, b + d
    if t * t + u * u == 1 and t < 0:
        t = -t
        a, b, c, d = -c, -d, a, b
    return UhpPoint(t, u), UnimodularMatrix(d, -b, -c, a)
