"""Binary quadratic forms [a, b, c], their zero map and reduction.

Integer forms feed the reduced-form enumeration; real (float) coefficients
occur as Julia and centroid quadratics.  The zero map sends a positive
definite [a, b, c] to (-b/2a, sqrt(|D|)/2a) in the upper half-plane and is
equivariant: q_zero_map(q_transform(Q, M)) = mobius(M.inverse(), q_zero_map(Q)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .forms import UnimodularMatrix
from .hyper import UhpPoint, _exact


@dataclass(frozen=True)
class QuadraticForm:
    """Q(x, y) = a*x^2 + b*x*y + c*y^2, written [a, b, c]."""

    a: object
    b: object
    c: object

    def __call__(self, x, y):
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __str__(self):
        return f"[{self.a}, {self.b}, {self.c}]"

    @property
    def is_exact(self) -> bool:
        return all(_exact(v) for v in (self.a, self.b, self.c))


def q_discriminant(Q: QuadraticForm):
    """b^2 - 4ac; fixed under the det-1 coefficient action."""
    return Q.b * Q.b - 4 * Q.a * Q.c


def q_is_positive_definite(Q: QuadraticForm) -> bool:
    return Q.a > 0 and q_discriminant(Q) < 0


def q_zero_map(Q: QuadraticForm) -> UhpPoint:
    """Upper half-plane point of a positive definite quadratic."""
    if not q_is_positive_definite(Q):
        raise DomainError(f"{Q} is not positive definite")
    disc = q_discriminant(Q)
    if Q.is_exact:
        t = Fraction(-Q.b, 1) / (2 * Q.a)
    else:
        t = -float(Q.b) / (2.0 * float(Q.a))
    u = math.sqrt(abs(float(disc))) / (2.0 * float(Q.a))
    return UhpPoint(t, u)


def q_transform(Q: QuadraticForm, M: UnimodularMatrix) -> QuadraticForm:
    """Coefficients of Q(a*x + b*y, c*x + d*y)."""
    A, B, C = Q.a, Q.b, Q.c
    a, b, c, d = M.a, M.b, M.c, M.d
    return QuadraticForm(
        A * a * a + B * a * c + C * c * c,
        2 * A * a * b + B * (a * d + b * c) + 2 * C * c * d,
        A * b * b + B * b * d + C * d * d,
    )


def q_is_reduced(Q: QuadraticForm) -> bool:
    """|b| <= a <= c, for positive definite integer forms."""
    if not q_is_positive_definite(Q):
        raise DomainError(f"{Q} is not positive definite")
    return abs(Q.b) <= Q.a <= Q.c


def q_reduce(Q: QuadraticForm):
    """Reduce a positive definite integer form by the translate/flip loop.

    Returns (Q', M) with q_transform(Q, M) == Q', q_is_reduced(Q') true and
    the discriminant preserved.  Boundary ties (|b| = a or a = c) are
    normalized to b >= 0; other forms (say a = 1.5) raise DomainError."""
    if not q_is_positive_definite(Q) or any(v % 1 for v in (Q.a, Q.b, Q.c)):
        raise DomainError(f"{Q} is not a positive definite integer form")
    a, b, c = int(Q.a), int(Q.b), int(Q.c)
    M = UnimodularMatrix.identity()
    S = UnimodularMatrix.inversion()
    while not (abs(b) <= a <= c):
        if abs(b) > a:
            # translate x -> x + m*y so the new b lands in (-a, a]
            q, r = divmod(b, 2 * a)
            m = -q
            if r > a:
                r -= 2 * a
                m -= 1
            c = a * m * m + b * m + c
            b = r
            M = M @ UnimodularMatrix.translation(m)
        if a > c:
            a, b, c = c, -b, a
            M = M @ S
    if b < 0 and (-b == a or a == c):
        if a == c:
            a, b, c = c, -b, a
            M = M @ S
        else:
            b, c = b + 2 * a, a + b + c
            M = M @ UnimodularMatrix.translation(1)
    return QuadraticForm(a, b, c), M


def enumerate_reduced(D: int, primitive_only: bool = False):
    """All reduced integer forms with discriminant -D, scanning b <= sqrt(D/3).

    The identifications [a, b, a] ~ [a, -b, a] and [a, a, c] ~ [a, -a, c] keep
    the b >= 0 representative.  With primitive_only the count is the class
    number h(-D)."""
    if D <= 0 or D % 4 not in (0, 3):
        raise ValueError(f"discriminant -D requires D > 0 and D = 0, 3 mod 4; got {D}")
    out = []
    b = D % 2
    while 3 * b * b <= D:
        m4 = b * b + D
        m = m4 // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if primitive_only and math.gcd(math.gcd(a, b), c) != 1:
                    a += 1
                    continue
                out.append(QuadraticForm(a, b, c))
                if b != 0 and a != b and a != c:
                    out.append(QuadraticForm(a, -b, c))
            a += 1
        b += 2
    return sorted(out, key=lambda Q: (Q.a, Q.c, -Q.b))
