"""Integer binary forms with exact coefficients.

A degree-n binary form f(x, y) = sum c_i x^(n-i) y^i is stored as the tuple
(c_0, ..., c_n) of Python integers, descending in the power of x.  All
coefficient arithmetic here is exact; only root finding is numeric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DomainError


@dataclass(frozen=True)
class BinaryForm:
    """Binary form with integer coefficients, descending x-power."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        raw = tuple(self.coeffs)
        try:
            coeffs = tuple(map(int, raw))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"coefficients {raw!r} are not all integers") from exc
        if coeffs != raw:
            raise ValueError(f"coefficients {raw!r} are not all integers")
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) < 2:
            raise ValueError("a binary form has degree >= 1")
        if not any(coeffs):
            raise ValueError("the zero form is not allowed")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x, y):
        """Evaluate f(x, y) by homogeneous Horner."""
        acc = 0
        for i, c in enumerate(self.coeffs):
            acc = acc * x + c * y**i
        return acc

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"


@dataclass(frozen=True)
class UnimodularMatrix:
    """2x2 integer matrix [[a, b], [c, d]] with determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        raw = (self.a, self.b, self.c, self.d)
        try:
            entries = tuple(map(int, raw))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"matrix entries {raw!r} are not all integers") from exc
        if entries != raw:
            raise ValueError(f"matrix entries {raw!r} are not all integers")
        for name, v in zip("abcd", entries):
            object.__setattr__(self, name, v)
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("matrix determinant must be 1")

    @classmethod
    def identity(cls) -> "UnimodularMatrix":
        return cls(1, 0, 0, 1)

    @classmethod
    def translation(cls, m: int) -> "UnimodularMatrix":
        """Matrix of the substitution x -> x + m*y."""
        return cls(1, m, 0, 1)

    @classmethod
    def inversion(cls) -> "UnimodularMatrix":
        """The order-4 element S; as a substitution (x, y) -> (-y, x)."""
        return cls(0, -1, 1, 0)

    def inverse(self) -> "UnimodularMatrix":
        return UnimodularMatrix(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c


@dataclass(frozen=True)
class UpperRootSet:
    """Roots of a real form split into upper half-plane representatives and
    real roots, each with its multiplicity; n = len(real) + 2*len(upper).  A
    root at infinity (leading coefficient zero) is reported as math.inf in
    `real`.  `repeated` says that some root has multiplicity above 1, as
    roots_upper proved it."""

    upper: tuple
    real: tuple[float, ...]
    repeated: bool = False

    @property
    def signature(self) -> tuple[int, int]:
        return (len(self.real), len(self.upper))


def content(f: BinaryForm) -> int:
    """gcd of the coefficients, always positive."""
    g = 0
    for c in f.coeffs:
        g = math.gcd(g, abs(c))
    return g


def primitive(f: BinaryForm) -> BinaryForm:
    """Divide out the content and make the leading nonzero coefficient
    positive; f itself when it is already so."""
    g = content(f)
    if next(filter(None, f.coeffs)) < 0:
        g = -g
    elif g == 1:
        return f
    return BinaryForm(tuple(c // g for c in f.coeffs))


def height(f: BinaryForm) -> int:
    """Naive height: max |c_i| of the primitive representative."""
    return max(abs(c) for c in primitive(f).coeffs)


def _strip(p: list) -> list:
    """p without its leading zeros ([] for the zero polynomial)."""
    k = 0
    while k < len(p) and p[k] == 0:
        k += 1
    return p[k:]


def _pp(p: list) -> list:
    """Primitive part of a nonzero polynomial, leading coefficient positive."""
    g = 0
    for c in p:
        g = math.gcd(g, c)
    if p[0] < 0:
        g = -g
    return [c // g for c in p]


def _derivative(p: list) -> list:
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def _divexact(p: list, q: list) -> list:
    """p / q for integer polynomials where q divides p in Z[x]."""
    p = list(p)
    out = []
    for i in range(len(p) - len(q) + 1):
        c, r = divmod(p[i], q[0])
        if r:
            raise ArithmeticError("inexact polynomial division")
        out.append(c)
        for j in range(1, len(q)):
            p[i + j] -= c * q[j]
    if any(p[len(out):]):
        raise ArithmeticError("inexact polynomial division")
    return out


def _poly_gcd(p: list, q: list) -> list:
    """Primitive gcd in Z[x] by the primitive pseudo-remainder sequence; the
    leading coefficient is positive and q may be the zero polynomial []."""
    p = _pp(p)
    q = _pp(q) if q else []
    while q:
        # pseudo-remainder of p by q, reduced to its primitive part
        r = list(p)
        while len(r) >= len(q):
            lead = r[0]
            r = [q[0] * c for c in r]
            for j in range(len(q)):
                r[j] -= lead * q[j]
            r = _strip(r)
        p, q = q, (_pp(r) if r else [])
    return p


def squarefree(coeffs: Sequence[int]) -> list:
    """Yun's squarefree decomposition of a nonzero binary form, exactly over
    the integers (D. Y. Y. Yun, SYMSAC 1976).

    Returns [(factor, multiplicity), ...] by increasing multiplicity: each
    factor a primitive binary form (coefficient tuple, descending x-power,
    leading nonzero coefficient positive), squarefree and coprime to the
    others, with the product of factor^multiplicity equal to f up to its
    content and sign.  Leading zero coefficients (the factor y) join the
    factor of their multiplicity."""
    p = _pp(_strip(list(coeffs)))
    at_infinity = len(coeffs) - len(p)
    out = []
    if len(p) > 1:
        dp = _derivative(p)
        a = _poly_gcd(p, dp)
        b, c = _divexact(p, a), _divexact(dp, a)
        d = [x - y for x, y in zip(c, _derivative(b))]
        m = 1
        while len(b) > 1:
            a = _poly_gcd(b, _strip(d))
            if len(a) > 1:
                out.append([a, m])
            b, c = _divexact(b, a), _divexact(d, a)
            d = [x - y for x, y in zip(c, _derivative(b))]
            m += 1
    if at_infinity:
        # y^k: y times the factor of multiplicity k, of degree one higher
        for item in out:
            if item[1] == at_infinity:
                item[0] = [0] + item[0]
                break
        else:
            out.append([[0, 1], at_infinity])
            out.sort(key=lambda item: item[1])
    return [(tuple(a), m) for a, m in out]


def from_upper_roots(roots) -> BinaryForm:
    """Monic totally complex form with the given conjugate pairs of roots.

    Each root t + iu (integer t, integer u >= 1) contributes the factor
    x^2 - 2t*x*y + (t^2 + u^2)*y^2; the result has degree 2*len(roots).
    """
    if not roots:
        raise ValueError("need at least one root")
    factors = []
    for z in roots:
        t, u = z.t, z.u
        if t != int(t) or u != int(u):
            raise ValueError(f"root {z} does not have integer coordinates")
        if u < 1:
            raise ValueError(f"root {z} has imaginary part below 1")
        t, u = int(t), int(u)
        factors.append((-2 * t, t * t + u * u))
    return BinaryForm(tuple(_quadratic_product(factors)))


def _quadratic_product(factors, b=(1,)) -> list:
    """Coefficients (descending x-power) of prod (x^2 + A*x*y + B*y^2) over
    the (A, B) pairs, times the monic polynomial b (default 1).  A and B are
    numbers, or equal-length numpy columns (one row per form); the leading
    coefficient stays the number 1."""
    b = list(b)
    for A, B in factors:
        b += [0, 0]
        for j in range(len(b) - 1, 1, -1):
            b[j] = b[j] + A * b[j - 1] + B * b[j - 2]
        b[1] = b[1] + A  # b[0] is 1
    return b


def transform(f: BinaryForm, M: UnimodularMatrix) -> BinaryForm:
    """Coefficients of f(a*x + b*y, c*x + d*y), computed exactly in O(n^2)
    by homogeneous Horner: out = c_0, then for each further coefficient c_i,
    col = col (c*x + d*y) and out = out (a*x + b*y) + c_i col, so col is
    (c*x + d*y)^i.  The kernel never uses the determinant.  A translation
    (every matrix of minimize on the pentagon database) takes the cheaper
    Taylor shift, with the same coefficients.

    The action composes as transform(transform(f, M), N) = transform(f, M @ N),
    and transform(transform(f, M), M.inverse()) == f.
    """
    a, b, c, d = M.a, M.b, M.c, M.d
    if (a, c, d) == (1, 0, 1):
        return shift(f, b)
    out, col = [f.coeffs[0]], [1]
    for ci in f.coeffs[1:]:
        col = [c * p + d * q for p, q in zip(col + [0], [0] + col)]
        out = [a * p + b * q + ci * r
               for p, q, r in zip(out + [0], [0] + out, col)]
    return BinaryForm(tuple(out))


def shift(f: BinaryForm, m: int) -> BinaryForm:
    """f(x + m*y, y): the unimodular translation, via a Taylor shift."""
    m = int(m)
    if m == 0:
        return f
    return BinaryForm(tuple(_taylor_shift(list(f.coeffs), m)))


def _taylor_shift(b: list, m) -> list:
    """Coefficients (descending x-power) of f(x + m*y, y), in place over the
    list b of f's coefficients: numbers, or equal-length numpy columns (one
    row per form) with m a number or a column of per-row shifts."""
    n = len(b) - 1
    for k in range(n):
        for j in range(1, n - k + 1):
            b[j] = b[j] + m * b[j - 1]
    return b


def _horner2(coeffs: Sequence[int], z: complex):
    """p(z), p'(z) and a bound on the rounding error of the p(z) evaluation."""
    p = 0j
    dp = 0j
    e = 0.0
    az = abs(z)
    for c in coeffs:
        dp = dp * z + p
        p = p * z + c
        e = e * az + abs(p)
    return p, dp, e * 2.2e-16


def _polish_root(coeffs: Sequence[int], z: complex):
    """At most three Newton steps against the exact integer coefficients,
    in doubles.

    Returns (root, ill) where ill means the evaluation rounding bound keeps
    the forward error above ~1e-13, i.e. doubles cannot certify this root.
    The steps evaluate only p and p'; the bound is computed once, by
    `_horner2` at the returned root, whose p' is bit for bit the one a
    further step there would see (the same Horner recurrence).  When that
    root, its p' or its bound is not finite (a power of z overflows the
    doubles), the unpolished start is returned with ill set, so the exact
    route certifies the root from there."""
    start = z
    for _ in range(3):
        p = dp = 0j
        for c in coeffs:
            dp = dp * z + p
            p = p * z + c
        if dp == 0:
            break
        step = p / dp
        z = z - step
        if abs(step) < 1e-16 * (1 + abs(z)):
            break
    _, dp, ebound = _horner2(coeffs, z)
    if z - z or dp - dp or ebound - ebound:  # nan for an infinite or nan part
        return start, True
    return z, dp == 0 or ebound / abs(dp) > 1e-13 * (1 + abs(z))


def _gauss_horner(coeffs: Sequence[int], a: int, b: int, e: int):
    """2^(en) p(w / 2^e) and 2^(e(n-1)) p'(w / 2^e) at the Gaussian integer
    w = a + bi, exactly: Horner with the coefficients scaled by 2^(ej)."""
    pr = pi = dr = di = 0
    for j, c in enumerate(coeffs):
        dr, di = dr * a - di * b + pr, dr * b + di * a + pi
        pr, pi = pr * a - pi * b + (c << (e * j)), pr * b + pi * a
    return pr, pi, dr, di


def _double_roots(coeffs: Sequence[int]):
    """The eigenvalues of the companion matrix, then the roots at 0 of the
    trailing zero coefficients, each polished by _polish_root, and whether
    any is ill.  The matrix (ones on the subdiagonal, first row -c_i / c_0)
    and the LAPACK call are those of np.roots, so the roots and their order
    are numpy's bit for bit.  The caller passes a nonzero leading c_0; a
    coefficient past the doubles (|c| >= 2^1024 - 2^970, which rounds up to
    2^1024) raises DomainError.

    A non-real root whose exact conjugate was polished before it takes the
    conjugate of that result and its ill flag; any other root is polished
    itself.  This is the result of polishing it: LAPACK returns the complex
    eigenvalues of a real matrix as exact conjugate pairs, upper root first,
    and with real coefficients every step of _polish_root (complex +, *, /
    and abs) is conjugate-symmetric bit for bit."""
    try:
        p = np.array([float(c) for c in coeffs])
    except OverflowError:
        raise DomainError("a coefficient is past the doubles (|c| >= 2^1024 "
                          "- 2^970), so its roots cannot be found") from None
    zeros = len(coeffs) - len(_strip(coeffs[::-1]))
    A = np.eye(len(p) - zeros - 1, k=-1)
    A[:1] = -p[1:len(p) - zeros] / p[0]
    roots, ill, upper = [], False, {}
    for z in [*np.linalg.eigvals(A), *[0.0] * zeros]:
        z = complex(z)
        pair = upper.get(z.conjugate()) if z.imag < 0 else None
        if pair is None:
            pair = _polish_root(coeffs, z)
            if z.imag > 0:
                upper[z] = pair
            roots.append(pair[0])
        else:
            roots.append(pair[0].conjugate())
        ill = ill or pair[1]
    return roots, ill


def _separated(discs) -> bool:
    """Whether the discs about (a + bi) / 2^e of radius r / 2^e, widened by 2
    for the rounding of r, are disjoint and, unless b = 0, off the real axis."""
    for k, (a, b, e, r) in enumerate(discs):
        if b != 0 and abs(b) <= 2 * r:
            return False
        for a2, b2, e2, r2 in discs[:k]:
            top = max(e, e2)
            da = (a << (top - e)) - (a2 << (top - e2))
            db = (b << (top - e)) - (b2 << (top - e2))
            reach = 2 * (math.ldexp(r, top - e) + math.ldexp(r2, top - e2))
            if da * da + db * db <= reach * reach:
                return False
    return True


def _sweep(coeffs: Sequence[int], w: list, e: int) -> bool:
    """One in-place Weierstrass (Durand-Kerner) sweep over the points a + bi
    of the grid 2^-e: w_i -= P conj(Q) / |Q|^2 rounded, Q = c_0 prod_{j != i}
    (w_i - w_j), where a coincident w_j counts 1.  Whether any point moved."""
    old = w[:]
    for i, (a, b) in enumerate(w):
        pr, pi, _, _ = _gauss_horner(coeffs, a, b, e)
        qr, qi = coeffs[0], 0
        for a2, b2 in w[:i] + w[i + 1:]:
            da, db = (a - a2, b - b2) if (a, b) != (a2, b2) else (1 << e, 0)
            qr, qi = qr * da - qi * db, qr * db + qi * da
        qq = qr * qr + qi * qi
        w[i] = (a - (2 * (pr * qr + pi * qi) + qq) // (2 * qq),
                b - (2 * (pi * qr - pr * qi) + qq) // (2 * qq))
    return w != old


def _roots_high_precision(coeffs: Sequence[int], start: Sequence[complex]):
    """Every root, certified from the double roots `start` by exact steps on
    Gaussian integers (_gauss_horner).  Pass 1: for each start, at most 8
    Newton steps P conj(P') / |P'|^2 rounded to its own grid 2^-e, e =
    max(0, 84 - binary exponent), to P = 0 or a zero step.  Later passes:
    _sweep on one grid for all roots, 64 bits finer each pass.  A pass
    certifies when every Henrici disc of radius n |P / P'| (Applied and
    Computational Complex Analysis I, 1974, 6.4) is below 2^(exponent - 75)
    and the discs are _separated; a root is its grid point correctly rounded.
    After pass 1 fails, squarefree runs once: a repeated root's factors are
    solved one by one, a squarefree polynomial by later passes, which raise
    ConvergenceError past 64 bits below Mahler's bound or at a non-finite start.
    Returns the roots and whether that split found a multiplicity above 1.
    """
    out, parts, todo = [], None, [(coeffs, start, True, 1)]
    while todo:
        coeffs, start, ill, m = todo.pop()
        if not ill:
            out += start * m
            continue
        if not all(math.isfinite(abs(z)) for z in start):
            raise ConvergenceError(f"no finite double roots of {coeffs}")
        n, exps = len(coeffs) - 1, [math.frexp(abs(z))[1] for z in start]
        top = max(0, 84 - min(exps))  # the grid of the first later pass
        # Mahler (Michigan Math. J. 11, 1964): roots over 2^(top + 64 - cap) apart
        cap = top + 64 + n * (n + sum(c * c for c in coeffs).bit_length())
        for e in [None, *range(top, cap + 1, 64)]:
            if e is not None:  # later passes: at most 32 sweeps, until none moves
                w = [(a << 64, b << 64) for a, b in w] if e > top else [
                    (round(math.ldexp(z.real, e)), round(math.ldexp(z.imag, e)))
                    for z in start]
                all(_sweep(coeffs, w, e) for _ in range(32))
            discs = []  # (a, b, grid exponent, radius in grid units)
            for i, (z, x) in enumerate(zip(start, exps)):
                if e is None:
                    g = max(0, 84 - x)
                    a, b = round(math.ldexp(z.real, g)), round(math.ldexp(z.imag, g))
                    for step in range(9):
                        pr, pi, dr, di = _gauss_horner(coeffs, a, b, g)
                        dd = dr * dr + di * di
                        if pr == pi == 0 or dd == 0 or step == 8:
                            break
                        sr = (2 * (pr * dr + pi * di) + dd) // (2 * dd)
                        si = (2 * (pi * dr - pr * di) + dd) // (2 * dd)
                        if sr == si == 0:
                            break
                        a, b = a - sr, b - si
                else:
                    g, (a, b) = e, w[i]
                    pr, pi, dr, di = _gauss_horner(coeffs, a, b, g)
                    dd = dr * dr + di * di
                pp = pr * pr + pi * pi
                # n |P / P'| < 2^(exponent - 75), in pass 1 2^9 grid units
                if dd == 0 or n * n * pp >= dd << 2 * (g + x - 75):
                    break
                discs.append((a, b, g, n * math.sqrt(pp / dd)))
            if len(discs) == n and _separated(discs):
                break
            if parts is None:
                parts = squarefree(coeffs)
                if any(k > 1 for _, k in parts):
                    todo = [(f, *_double_roots(f), k) for f, k in parts]
                    discs = []
                    break
        else:
            raise ConvergenceError(f"roots of {coeffs} not certified")
        out += [complex(a / 2**g, b / 2**g) for a, b, g, _ in discs] * m
    return out, any(k > 1 for _, k in parts or ())


def roots_upper(f: BinaryForm) -> UpperRootSet:
    """Roots of f split by half-plane, as root finding proved them.

    Doubles stand when they certify every root; otherwise the one exact
    route, _roots_high_precision, certifies them all (Newton per root, then
    the squarefree split or Weierstrass sweeps).  A root is real exactly
    when its imaginary part is 0: LAPACK returns the real eigenvalues of the
    real companion matrix exactly real and the others as exact conjugate
    pairs, _polish_root keeps a real start real, and a certified disc either
    has b = 0, so the one root in that conjugate-symmetric disc is real, or
    lies off the axis (_separated).  The roots are repeated when the
    squarefree split found a multiplicity above 1; doubles that certify
    every root and discs that are _separated prove them distinct.  Leading
    zero coefficients become real roots at infinity, repeated when there
    are two or more.  Raises ConvergenceError when certification fails or
    when conjugates fail to pair up.
    """
    coeffs = _strip(list(f.coeffs))
    at_infinity = len(f.coeffs) - len(coeffs)
    if len(coeffs) < 2:
        # f = c * y^n: the only root is at infinity, with multiplicity n.
        return UpperRootSet(upper=(), real=(math.inf,) * f.degree,
                            repeated=f.degree > 1)
    roots, ill = _double_roots(coeffs)
    repeated = False
    if ill:
        roots, repeated = _roots_high_precision(coeffs, roots)
    upper = [z for z in roots if z.imag > 0]
    real = [z.real for z in roots if z.imag == 0]
    lower = len(roots) - len(upper) - len(real)
    if len(upper) != lower:
        raise ConvergenceError(f"could not pair conjugate roots of {f}: "
                               f"{len(upper)} upper vs {lower} lower")

    from .hyper import UhpPoint  # deferred: forms is imported by hyper

    upper_pts = tuple(
        UhpPoint(z.real, z.imag) for z in sorted(upper, key=lambda w: (w.real, w.imag))
    )
    return UpperRootSet(upper=upper_pts,
                        real=tuple(sorted(real + [math.inf] * at_infinity)),
                        repeated=repeated or at_infinity > 1)
