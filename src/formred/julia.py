"""Julia reduction: the weighted root quadratic, theta_0, and its minimizer.

For a form with real roots a_1..a_r and upper-half-plane roots b_1..b_s the
weighted quadratic is

    Q = sum t_i^2 (x - a_i y)^2  +  sum 2 u_j^2 (x - b_j y)(x - conj(b_j) y)

and theta_0 = c_0^2 |disc Q|^(n/2) / (prod t_i^2 prod u_j^4), with c_0 the
leading coefficient.  theta_0 is scale-invariant in the weights and has a
unique minimum up to that scaling; the minimizing quadratic is the Julia
quadratic and its zero-map point drives the reduction.

The minimizer works in log-weight coordinates, where the objective is smooth
and the scaling direction is an exact null direction of both gradient and
Hessian.  A damped Newton iteration (gradient fallback) drives the projected
gradient below 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .forms import BinaryForm, UpperRootSet, roots_upper
from .hyper import UhpPoint
from .quad import QuadraticForm, q_discriminant, q_zero_map


@dataclass(frozen=True)
class JuliaWeights:
    """Positive weights (t_1..t_r, u_1..u_s); the minimizer returns them
    normalized so that prod t_i^2 * prod u_j^4 = 1."""

    t: tuple
    u: tuple

    def __post_init__(self):
        if any(v <= 0 for v in self.t) or any(v <= 0 for v in self.u):
            raise ValueError("Julia weights must be strictly positive")


@dataclass(frozen=True)
class JuliaResult:
    quadratic: QuadraticForm
    theta: float
    weights: JuliaWeights
    zero: UhpPoint


def q_of_weights(roots: UpperRootSet, w: JuliaWeights) -> QuadraticForm:
    """The weighted quadratic Q for the given root set and weights."""
    if len(w.t) != len(roots.real) or len(w.u) != len(roots.upper):
        raise ValueError(
            f"weights ({len(w.t)}, {len(w.u)}) do not match signature "
            f"{roots.signature}"
        )
    A = 0
    B = 0
    C = 0
    for ti, alpha in zip(w.t, roots.real):
        if math.isinf(alpha):
            raise DomainError("root at infinity: transform the form first")
        v = ti * ti
        A += v
        B += v * (-2 * alpha)
        C += v * alpha * alpha
    for uj, beta in zip(w.u, roots.upper):
        v = 2 * uj * uj
        A += v
        B += v * (-2 * beta.t)
        C += v * (beta.t * beta.t + beta.u * beta.u)
    return QuadraticForm(A, B, C)


def theta0(f: BinaryForm, roots: UpperRootSet, w: JuliaWeights) -> float:
    """theta_0 of f at the given weights; positive, scale-invariant in w."""
    if f.coeffs[0] == 0:
        raise DomainError("leading coefficient is zero: shift the form first")
    Q = q_of_weights(roots, w)
    D = float(q_discriminant(Q))
    if D >= 0:
        raise DomainError("degenerate weighted quadratic (disc >= 0)")
    n = f.degree
    denom = math.prod(float(v) ** 2 for v in w.t) * math.prod(
        float(v) ** 4 for v in w.u
    )
    return float(f.coeffs[0]) ** 2 * abs(D) ** (n / 2) / denom


def _objective_data(roots: UpperRootSet):
    """Constant coefficient triples R_k of Q = sum p_k R_k and the log-term
    multiplicities m_k (1 for a real root, 2 for a conjugate pair)."""
    R = []
    m = []
    for alpha in roots.real:
        if math.isinf(alpha):
            raise DomainError("root at infinity: transform the form first")
        R.append((1.0, -2.0 * alpha, alpha * alpha))
        m.append(1.0)
    for beta in roots.upper:
        x, y = float(beta.t), float(beta.u)
        R.append((2.0, -4.0 * x, 2.0 * (x * x + y * y)))
        m.append(2.0)
    return np.array(R), np.array(m)


def _minimize_log_weights(R: np.ndarray, m: np.ndarray, n: int, xi0):
    """Damped Newton on F(xi) = (n/2) log|disc Q| - sum m_k xi_k, Q = sum e^xi_k R_k,
    to a projected gradient below 1e-10 within 10 000 steps.

    The all-ones direction is a null direction (scale invariance), so the
    Newton system is solved with a rank-one shift along it; the returned
    gradient is already the projected gradient.  Internals run in extended
    precision: 4AC - B^2 cancels catastrophically for nearly degenerate
    minimizers (tiny zero-map height), and doubles cannot certify a 1e-10
    gradient there."""
    K = len(m)
    Rld = R.astype(np.longdouble)
    mld = m.astype(np.longdouble)
    xi = np.array(xi0, dtype=np.longdouble)
    tau = 4.0 * (np.outer(Rld[:, 0], Rld[:, 2]) + np.outer(Rld[:, 2], Rld[:, 0])) \
        - 2.0 * np.outer(Rld[:, 1], Rld[:, 1])

    def fg(xi):
        # overflow in a trial evaluation just means "reject the step"
        with np.errstate(over="ignore", invalid="ignore"):
            p = np.exp(xi)
            A, B, C = p @ Rld
            g = 4.0 * A * C - B * B
            if not (g > 0) or not np.isfinite(float(g)):
                return None, None, None
            F = 0.5 * n * np.log(g) - mld @ xi
            sigma = 4.0 * (Rld[:, 0] * C + A * Rld[:, 2]) - 2.0 * B * Rld[:, 1]
            G = 0.5 * n * p * sigma / g - mld
        if not np.all(np.isfinite(G.astype(float))):
            return None, None, None
        return F, G, (p, g, sigma)

    F, G, aux = fg(xi)
    if F is None:
        raise DomainError("weighted quadratic degenerate at the starting weights")
    ones = np.ones(K)
    lam = 0.0
    for _ in range(10000):
        gnorm = float(np.max(np.abs(G)))
        if gnorm < 1e-10:
            return np.asarray(xi, dtype=float), np.asarray(G, dtype=float)
        p, g, sigma = aux
        H = 0.5 * n * (np.diag(p * sigma / g)
                       + np.outer(p, p) * (tau * g - np.outer(sigma, sigma)) / (g * g))
        Hd = np.asarray(H, dtype=float)
        Gd = np.asarray(G, dtype=float)
        # F is not convex far from the minimum: demand an actual descent
        # direction (raising the damping until we have one) and a strict F
        # decrease, easing off only for tiny terminal steps where F ties at
        # rounding level but the gradient still falls hard.
        moved = False
        for _ in range(40):
            M_ = Hd + np.outer(ones, ones) + lam * np.eye(K)
            try:
                step = np.linalg.solve(M_, -Gd)
            except np.linalg.LinAlgError:
                step = -Gd
            if not np.all(np.isfinite(step)) or float(step @ Gd) >= 0:
                lam = 10.0 * lam if lam > 0 else 1e-8
                continue
            scale = 1.0
            for _ in range(40):
                delta = scale * step.astype(np.longdouble)
                F2, G2, aux2 = fg(xi + delta)
                if F2 is not None:
                    tiny = float(np.max(np.abs(delta))) < 1e-5
                    ok = F2 < F or (tiny and F2 < F + 1e-12 * (1 + abs(float(F)))
                                    and float(np.max(np.abs(G2))) < 0.5 * gnorm)
                    if ok:
                        # recenter along the null direction; F, G and the H
                        # building blocks are all invariant under the shift
                        xi = (xi + delta) - (xi + delta).mean()
                        F, G, aux = F2, G2, aux2
                        moved = True
                        break
                scale *= 0.5
            if moved:
                lam = lam / 4.0 if lam > 1e-12 else 0.0
                break
            lam = 10.0 * lam if lam > 0 else 1e-8
        if not moved:
            raise ConvergenceError("theta_0 line search stalled")
    raise ConvergenceError("theta_0 minimization did not reach tol=1e-10")


def minimize_theta0(f: BinaryForm,
                    roots: UpperRootSet | None = None) -> JuliaResult:
    """Minimize theta_0 over the weights, to a projected gradient below
    1e-10; returns the Julia quadratic, the Julia invariant, the normalized
    weights and the Julia zero point.  `roots` is roots_upper(f) when the
    caller already has it.

    Requires the leading coefficient nonzero and either a non-real root or
    at least three distinct real roots (else no positive definite minimum).
    """
    if f.coeffs[0] == 0:
        raise DomainError("leading coefficient is zero: shift the form first")
    if roots is None:
        roots = roots_upper(f)
    r, s = roots.signature
    if s == 0 and len(set(roots.real)) < 3:
        raise DomainError(
            f"signature ({r}, {s}) admits no positive definite minimizer"
        )
    R, m = _objective_data(roots)
    n = f.degree
    if r + s == 1:
        # single weight: theta_0 is constant by scale invariance
        xi = np.zeros(1)
    else:
        # start near the centroid quadratic: pair weights proportional to 1/y
        xi0 = [0.0] * r + [math.log(0.5 / float(b.u)) for b in roots.upper]
        xi, _ = _minimize_log_weights(R, m, n, xi0)
    # normalize prod t^2 prod u^4 = 1, i.e. sum m_k xi_k = 0
    xi = xi - (m @ xi) / m.sum()
    p = np.exp(xi)
    weights = JuliaWeights(
        t=tuple(math.sqrt(v) for v in p[:r]),
        u=tuple(math.sqrt(v) for v in p[r:]),
    )
    Q = q_of_weights(roots, weights)
    return JuliaResult(
        quadratic=Q,
        theta=theta0(f, roots, weights),
        weights=weights,
        zero=q_zero_map(Q),
    )
