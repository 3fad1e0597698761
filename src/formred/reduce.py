"""End-to-end height reduction pipelines.

Every stage is monotone: it returns its input (primitive) unchanged when the
attempted transformation does not strictly lower the height.  Shifts here are
substitutions x -> x + m*y; moving a center at Re = t into the fundamental
strip therefore uses m = nint(t).

`minimize` finds the roots once and picks its first stage from their
signature: hyperbolic with no real root, center of mass with a non-real
root, Julia when every root is real.

A form with a real root p/q of multiplicity m >= n/2 is unstable: theta_0
has no positive definite minimum, and its infimum lies at the cusp p/q
(Cremona-Stoll 2003).  `minimize` skips the zero-point stage for such a form,
so shift descent and the scaling scan do the work, and `reduce_julia` moves
p/q to infinity by the matrix with first column (p, q), completed by
extended gcd, keeping the result only when the height drops.  Only forms
with repeated roots are tested, from the exact squarefree decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile

from .errors import DomainError
from .forms import (BinaryForm, UnimodularMatrix, UpperRootSet, height,
                    _taylor_shift, primitive, roots_upper, shift, squarefree,
                    transform)
from .hyper import UhpPoint, center_of_mass, hyperbolic_centroid, nint, \
    reduce_to_fundamental
from .julia import minimize_theta0

METHODS = ("julia", "hyperbolic", "com", "shift-descent", "scaling", "full")


@dataclass(frozen=True)
class ReductionReport:
    input: BinaryForm
    output: BinaryForm
    matrix: UnimodularMatrix
    scale: Fraction
    method: str
    input_height: int
    output_height: int
    zero_used: UhpPoint | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.output_height > self.input_height:
            raise ValueError("reduction increased the height")

    def to_json_dict(self) -> dict:
        zero = None
        if self.zero_used is not None:
            zero = [round(float(self.zero_used.t), 6),
                    round(float(self.zero_used.u), 6)]
        M = self.matrix
        return {
            "method": self.method,
            "input": [str(c) for c in self.input.coeffs],
            "output": [str(c) for c in self.output.coeffs],
            "matrix": [[M.a, M.b], [M.c, M.d]],
            "scale": str(self.scale),
            "input_height": self.input_height,
            "output_height": self.output_height,
            "zero_used": zero,
        }


def _finish(f: BinaryForm, candidate: BinaryForm, M: UnimodularMatrix,
            method: str, zero: UhpPoint | None = None,
            scale: Fraction = Fraction(1)) -> ReductionReport:
    """Keep the candidate only when it strictly lowers the height."""
    f0 = primitive(f)
    h0 = max(map(abs, f0.coeffs))
    cand = primitive(candidate)
    h1 = max(map(abs, cand.coeffs))
    if h1 < h0:
        return ReductionReport(f, cand, M, scale, method, h0, h1, zero)
    return ReductionReport(f, f0, UnimodularMatrix.identity(), Fraction(1),
                           method, h0, h0, zero)


def reduce_hyperbolic(f: BinaryForm,
                      roots: UpperRootSet | None = None) -> ReductionReport:
    """Reduce a totally complex form by its hyperbolic centroid; `roots` is
    roots_upper(f) when the caller already has it."""
    rootset = roots_upper(f) if roots is None else roots
    if rootset.real:
        raise DomainError("hyperbolic reduction requires a form with no real roots")
    cent = hyperbolic_centroid(list(rootset.upper))
    _, M = reduce_to_fundamental(cent)
    return _finish(f, transform(f, M), M, "hyperbolic", cent)


def reduce_com(f: BinaryForm, tie: str = "away",
               roots: UpperRootSet | None = None) -> ReductionReport:
    """Shift by the rounded real part of the upper-root center of mass
    (the experimental stand-in for Julia reduction in the database runs);
    `roots` is roots_upper(f) when the caller already has it."""
    nint(0, tie)  # refuses an unknown tie before any root finding
    rootset = roots_upper(f) if roots is None else roots
    if not rootset.upper:
        raise DomainError("center-of-mass reduction requires a non-real root")
    com = center_of_mass(list(rootset.upper))
    m = nint(com.t, tie)
    return _finish(f, shift(f, m), UnimodularMatrix.translation(m), "com", com)


def _unstable_root(f: BinaryForm, roots: UpperRootSet):
    """(p, q) when f is unstable: its linear squarefree factor q x - p y
    has multiplicity m >= n/2 (Cremona-Stoll 2003), so theta_0 has no
    positive definite minimum and the Julia zero runs off to the cusp p/q;
    else None.  Only forms with repeated roots can be unstable.  A zero
    leading coefficient also gives None: the Julia route refuses it first."""
    if roots.repeated and f.coeffs[0]:
        for factor, m in squarefree(f.coeffs):
            if len(factor) == 2 and 2 * m >= f.degree:
                return -factor[1], factor[0]
    return None


def reduce_julia(f: BinaryForm,
                 roots: UpperRootSet | None = None) -> ReductionReport:
    """True Julia reduction: move the theta_0 minimizer's zero into the
    fundamental domain; `roots` is roots_upper(f) when the caller already
    has it.  An unstable form instead has its cusp p/q sent to infinity by
    the matrix with first column (p, q)."""
    if f.coeffs[0] != 0:  # else minimize_theta0 raises its DomainError
        roots = roots_upper(f) if roots is None else roots
        cusp = _unstable_root(f, roots)
        if cusp is not None:
            p, q = cusp
            d = pow(p, -1, q)  # p d = 1 mod q, q > 0
            M = UnimodularMatrix(p, (p * d - 1) // q, q, d)
            return _finish(f, transform(f, M), M, "julia")
    res = minimize_theta0(f, roots=roots)
    _, M = reduce_to_fundamental(res.zero)
    return _finish(f, transform(f, M), M, "julia", res.zero)


def shift_direction(f: BinaryForm) -> set:
    """Which unit shifts lower the height: '+' for x -> x+y, '-' for x -> x-y."""
    h = height(f)
    out = set()
    if height(shift(f, 1)) < h:
        out.add("+")
    if height(shift(f, -1)) < h:
        out.add("-")
    return out


def shift_descent(f: BinaryForm, patience: int = 3) -> ReductionReport:
    """Walk integer shifts in both directions, keeping the best shift seen;
    each direction stops after `patience` consecutive non-improving steps.

    A shift keeps the content and the leading nonzero coefficient, so every
    shift of the primitive f0 is primitive, and the trailing coefficient of
    f0(x + m y, y) is f0(m, 1).  Its height is therefore at least
    |f0(m, 1)|, so a step where that value (Horner on f0's coefficients,
    O(n)) is already >= the best height is a miss without building the
    shifted form.  Only the other steps take the O(n^2) Taylor shift of f0
    by m, and `shift` builds the winning form once, as the output."""
    _at_least_1(patience=patience)
    f0 = primitive(f)
    h0 = max(map(abs, f0.coeffs))
    best_h, best_m = h0, 0
    for direction in (1, -1):
        misses = m = 0
        while misses < patience:
            m += direction
            end = 0
            for c in f0.coeffs:
                end = end * m + c
            if abs(end) < best_h:
                h = max(map(abs, _taylor_shift(list(f0.coeffs), m)))
                if h < best_h:
                    best_h, best_m, misses = h, m, 0
                    continue
            misses += 1
    return ReductionReport(f, shift(f0, best_m),
                           UnimodularMatrix.translation(best_m), Fraction(1),
                           "shift-descent", h0, best_h)


def _at_least_1(**params):
    """Refuse a patience or bound below 1, naming it."""
    for name, value in params.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1")


def _smooth(w: int, c: int) -> bool:
    """True when every prime of w divides c (always, for c = 0)."""
    g = math.gcd(w, c)
    while g > 1:
        w //= g
        g = math.gcd(w, c)
    return w == 1


def _scale_pairs(c: tuple, bound: int) -> list:
    """The (u, v) that scale_search visits, in scan order: coprime,
    content-feasible and under the cap u^n < |c_n| h0, v^n < |c_0| h0
    (h0 = max |c_i|), (1, 1) left out; c is scale_search's stripped form."""
    n = len(c) - 1
    ucap, vcap = (abs(e) * max(map(abs, c)) for e in (c[-1], c[0]))
    us = [u for u in takewhile(lambda u: u ** n < ucap, range(1, bound + 1))
          if _smooth(u, c[-1])]
    vs = [v for v in takewhile(lambda v: v ** n < vcap, range(1, bound + 1))
          if _smooth(v, c[0])]
    return sorted(
        ((u, v) for u in us for v in vs
         if math.gcd(u, v) == 1 and (u, v) != (1, 1)),
        key=lambda p: (p[0] + p[1], p[0]),
    )


def _scaled(c: tuple, u: int, v: int) -> list:
    """The coefficients c_i u^(n-i) v^i of f(u x, v y)."""
    n = len(c) - 1
    return [ci * u ** (n - i) * v ** i for i, ci in enumerate(c)]


def scale_search(f: BinaryForm, bound: int = 64) -> ReductionReport:
    """Scan of scalings x -> (u/v) x with 1 <= u, v <= bound, gcd(u, v) = 1.

    A candidate is the primitive form with coefficients c_i u^(n-i) v^i; the
    minimal-height one wins, with ties resolved to lambda = 1 first and then
    to the smallest (u + v, u).

    With c_k and c_l the first and last nonzero coefficients, f(u x, v y) is
    u^(n-l) v^k x^(n-l) y^k s(u x, v y), s the stripped form c_k..c_l of
    degree n' = l - k, so both have the same height at every (u, v).  s is
    primitive with both ends nonzero, and the pairs come from s.

    Only content-feasible scalings are visited: every prime of u divides c_l
    and every prime of v divides c_k.  A prime p of u that does not divide
    c_l cannot divide c_l v^n', the last coefficient of s(u x, v y), hence
    not its content.  Dividing every p out of u therefore leaves the content
    unchanged while no coefficient grows, so the height does not go up, and
    it lowers u + v: that candidate comes earlier in the scan.  The same
    holds for v against c_k.  So the first minimum of the full scan is
    always feasible, and the pruned scan returns the same form, scale and
    height; monic forms only need v = 1.

    The scan is also capped: it drops every u with u^n' >= |c_l| h0 and
    every v with v^n' >= |c_k| h0, h0 the input's height.  With
    gcd(u, v) = 1 and s primitive, a prime of u divides the content g of
    s(u x, v y) at most to its power in c_l v^n', that is in c_l, and a
    prime of v at most to its power in c_k; no other prime divides g.  So
    g = g_u g_v with g_u | c_l and g_v | c_k, and the end coefficients give
    h >= |c_k| u^n' / g >= u^n' / |c_l| and h >= |c_l| v^n' / g >=
    v^n' / |c_k|.  A dropped pair therefore never strictly beats h0, and
    only a strictly lower height replaces the best, so the capped scan
    returns the same form, scale and height.

    A visited pair is expanded only when its outer terms leave room.  The
    content g of f(u x, v y) divides both e_k = c_k u^(n-k) v^k and
    e_l = c_l u^(n-l) v^l, hence their gcd G > 0, so
    h >= max(|e_k|, |e_l|) / g >= max(|e_k|, |e_l|) // G.  A pair where
    that is already >= the best height so far cannot strictly lower it, so
    skipping it changes nothing."""
    _at_least_1(bound=bound)
    f0 = primitive(f)
    c = f0.coeffs
    n = len(c) - 1
    nonzero = [i for i, ci in enumerate(c) if ci]
    k, l = nonzero[0], nonzero[-1]
    h0 = max(map(abs, c))
    best_h, best_u, best_v, best = h0, 1, 1, f0
    for u, v in _scale_pairs(c[k:l + 1], bound):
        ek, el = c[k] * u ** (n - k) * v ** k, c[l] * u ** (n - l) * v ** l
        if max(abs(ek), abs(el)) // math.gcd(ek, el) >= best_h:
            continue
        g = _scaled(c, u, v)
        content = math.gcd(*g)
        h = max(map(abs, g)) // content
        if h < best_h:
            best_h, best_u, best_v = h, u, v
            best = BinaryForm(tuple(ci // content for ci in g))
    return ReductionReport(f, best, UnimodularMatrix.identity(),
                           Fraction(best_u, best_v), "scaling", h0, best_h)


def minimize(f: BinaryForm, patience: int = 3, bound: int = 64,
             tie: str = "away") -> ReductionReport:
    """Full pipeline: a zero-point reduction picked from the root signature
    (hyperbolic centroid with no real root, center of mass with a non-real
    one, Julia otherwise; none for an unstable form), then shift descent,
    then the scaling scan."""
    if f.degree < 2:
        raise ValueError("minimize needs degree >= 2")
    # refuse a bad tie, patience or bound before any root finding
    nint(0, tie)
    _at_least_1(patience=patience, bound=bound)
    roots = roots_upper(f)
    if _unstable_root(f, roots) is not None:
        stage1 = _finish(f, f, UnimodularMatrix.identity(), "full")
    elif not roots.real:
        stage1 = reduce_hyperbolic(f, roots=roots)
    elif roots.upper:
        stage1 = reduce_com(f, tie=tie, roots=roots)
    else:
        stage1 = reduce_julia(f, roots=roots)
    stage2 = shift_descent(stage1.output, patience)
    stage3 = scale_search(stage2.output, bound)
    return ReductionReport(f, stage3.output, stage1.matrix @ stage2.matrix,
                           stage3.scale, "full", stage1.input_height,
                           stage3.output_height, stage1.zero_used)
