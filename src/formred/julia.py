"""Julia reduction: the weighted root quadratic, theta_0, and its minimizer.

For a form with real roots a_1..a_r and upper-half-plane roots b_1..b_s the
weighted quadratic is

    Q = sum t_i^2 (x - a_i y)^2  +  sum 2 u_j^2 (x - b_j y)(x - conj(b_j) y)

and theta_0 = c_0^2 |disc Q|^(n/2) / (prod t_i^2 prod u_j^4), with c_0 the
leading coefficient.  theta_0 is scale-invariant in the weights and has a
unique minimum up to that scaling; the minimizing quadratic is the Julia
quadratic and its zero-map point drives the reduction.

The minimum over the weights is a point (Cremona-Stoll 2003).  With the roots
written x_k + i y_k, the weights p_k = 1 / ((x - x_k)^2 + y^2 + y_k^2) are the
best ones for the zero z = x + iy, and there log theta_0 is, up to a constant,
Phi(z) = sum m_k log((x - x_k)^2 + y^2 + y_k^2) - n log y, with m_k = 1 for a
real root and 2 for a pair.  Its minimizer, found by damped Newton, is the
Julia zero, and the weights there give the Julia quadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .forms import BinaryForm, UpperRootSet, roots_upper
from .hyper import UhpPoint
from .quad import QuadraticForm, q_discriminant


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


def _root_terms(roots: UpperRootSet):
    """x_k, y_k^2 and m_k of the terms of Phi, real roots first."""
    r, s = roots.signature
    return (np.array([float(v) for v in roots.real]
                     + [float(b.t) for b in roots.upper]),
            np.array([0.0] * r + [float(b.u) ** 2 for b in roots.upper]),
            np.array([1.0] * r + [2.0] * s))


# Both solvers stop at a hyperbolic gradient below _GRAD_TOL, halve a rejected
# step at most _HALVINGS times and give up after _MAX_STEPS steps.  A trial
# point is taken when it lowers Phi or, since near the minimum Phi ties at
# rounding level, when it raises Phi by at most _PHI_RTOL (1 + |Phi|) and
# halves the gradient.
_GRAD_TOL = 1e-10
_PHI_RTOL = 1e-12
_HALVINGS = 60
_MAX_STEPS = 10000


def _julia_zero(xk: np.ndarray, yk2: np.ndarray, m: np.ndarray, x: float,
                y: float):
    """Damped Newton on Phi(x, s), y = e^s, from (x, y) to a hyperbolic
    gradient (y dPhi/dx, dPhi/ds) below 1e-10; returns the minimizer (x, y).
    Steps are taken in the frame (dx / y, ds) and follow the negative gradient
    where the Hessian is not positive definite."""
    n = m.sum()

    def evaluate(x, s):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            y = np.exp(s)
            d = x - xk
            D = d * d + y * y + yk2
            # columns: the frame gradients (2yd/D, 2y^2/D) of the terms log D_k
            E = np.array((2 * y * d / D, 2 * y * y / D))
            phi = m @ np.log(D) - n * s
            g = E @ m - (0, n)
            q = E[1] @ m
            H = np.array(((q, 0), (0, 2 * q))) - (E * m) @ E.T
        if not (np.isfinite(phi) and np.isfinite(H).all()):
            phi = math.inf  # overflow: the step is rejected
        return phi, g, H

    s = math.log(y)
    phi, g, H = evaluate(x, s)
    for _ in range(_MAX_STEPS):
        gnorm = np.max(np.abs(g))
        if H[0, 0] > 0 and H[0, 0] * H[1, 1] > H[0, 1] ** 2:
            step = np.linalg.solve(H, -g)
        else:
            step = -g
        y = math.exp(s)
        if gnorm < _GRAD_TOL:
            # the test bounds the error only up to the Hessian's conditioning;
            # one more step from here lands at rounding level
            trial = evaluate(x + y * step[0], s + step[1])
            if np.max(np.abs(trial[1])) <= gnorm:
                x, s = x + y * step[0], s + step[1]
            return x, math.exp(s)
        for _ in range(_HALVINGS):
            trial = evaluate(x + y * step[0], s + step[1])
            if trial[0] < phi or (
                    trial[0] < phi + _PHI_RTOL * (1 + abs(phi))
                    and np.max(np.abs(trial[1])) < 0.5 * gnorm):
                x, s = x + y * step[0], s + step[1]
                phi, g, H = trial
                break
            step = step / 2
        else:
            raise ConvergenceError("theta_0 line search stalled")
    raise ConvergenceError(
        f"theta_0 minimization did not reach tol={_GRAD_TOL:g}")


def _phi_rows(X, Y2, m, n, x, s):
    """Phi, its frame gradient (g0, g1) and Hessian (h00, h01, h11) at the
    points (x, e^s) of the rows, as `_julia_zero`'s evaluate computes them
    for one row; Phi is inf where any of them is not finite."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y = np.exp(s)[:, None]
        d = x[:, None] - X
        D = d * d + y * y + Y2
        e0, e1 = 2 * y * d / D, 2 * y * y / D
        phi = (m * np.log(D)).sum(axis=1) - n * s
        g0 = (m * e0).sum(axis=1)
        q = (m * e1).sum(axis=1)
        h00 = q - (m * e0 * e0).sum(axis=1)
        h01 = -(m * e0 * e1).sum(axis=1)
        h11 = 2 * q - (m * e1 * e1).sum(axis=1)
    finite = np.isfinite(phi) & np.isfinite(h00) & np.isfinite(h01)
    phi[~(finite & np.isfinite(h11))] = math.inf
    return phi, np.array((g0, q - n)), np.array((h00, h01, h11))


def _julia_zeros(X: np.ndarray, Y2: np.ndarray, m, x: np.ndarray,
                 y: np.ndarray):
    """`_julia_zero` on every row at once: X and Y2 hold the rows' x_k and
    y_k^2 as (rows, K) float arrays, m the multiplicities (broadcast to
    them), x and y the start points.  Each row takes the scalar solver's
    steps, stopping rule and line search; rows leave the iteration when they
    converge or stall.  Returns the zeros (x, y) and a mask of the rows
    whose line search stalled or that ran out of steps, where (x, y) is
    meaningless."""
    m = np.broadcast_to(m, X.shape)
    n = m.sum(axis=1)
    x, s = np.array(x, dtype=np.float64), np.log(y)
    phi, g, H = _phi_rows(X, Y2, m, n, x, s)
    stalled = np.zeros(len(x), dtype=bool)
    live = np.arange(len(x))
    for _ in range(_MAX_STEPS):
        if not live.size:
            break
        gl, (h00, h01, h11) = g[:, live], H[:, live]
        gnorm = np.abs(gl).max(axis=0)
        det = h00 * h11 - h01 * h01
        newton = (h00 > 0) & (det > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(newton, (np.array((h01 * gl[1] - h11 * gl[0],
                                               h01 * gl[0] - h00 * gl[1]))
                                     / det), -gl)
        y = np.exp(s[live])
        done = gnorm < _GRAD_TOL
        # converged rows: one more step unless it raises the gradient
        rows = live[done]
        xt, st = x[rows] + y[done] * step[0, done], s[rows] + step[1, done]
        gt = _phi_rows(X[rows], Y2[rows], m[rows], n[rows], xt, st)[1]
        better = np.abs(gt).max(axis=0) <= gnorm[done]
        x[rows[better]], s[rows[better]] = xt[better], st[better]
        # the others: a line search of at most _HALVINGS halvings
        rows, y, step, gnorm = (live[~done], y[~done], step[:, ~done],
                                gnorm[~done])
        moved = [rows[:0]]
        for _ in range(_HALVINGS):
            if not rows.size:
                break
            xt, st = x[rows] + y * step[0], s[rows] + step[1]
            pt, gt, ht = _phi_rows(X[rows], Y2[rows], m[rows], n[rows], xt, st)
            p0 = phi[rows]
            ok = (pt < p0) | ((pt < p0 + _PHI_RTOL * (1 + abs(p0)))
                              & (np.abs(gt).max(axis=0) < 0.5 * gnorm))
            take = rows[ok]
            x[take], s[take], phi[take] = xt[ok], st[ok], pt[ok]
            g[:, take], H[:, take] = gt[:, ok], ht[:, ok]
            moved.append(take)
            rows, y, step, gnorm = rows[~ok], y[~ok], step[:, ~ok] / 2, gnorm[~ok]
        stalled[rows] = True
        live = np.concatenate(moved)
    stalled[live] = True
    return x, np.exp(s), stalled


def minimize_theta0(f: BinaryForm,
                    roots: UpperRootSet | None = None) -> JuliaResult:
    """Minimize theta_0 over the weights by minimizing Phi over the zero;
    returns the Julia quadratic, the Julia invariant, the normalized weights
    and the Julia zero point.  `roots` is roots_upper(f) when the caller
    already has it.

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
    xk, yk2, m = _root_terms(roots)
    # start at the zero of the quadratic with real weights 1 and pair weights
    # proportional to 1/y (the centroid quadratic for a totally complex form)
    w = np.array([1.0] * r + [1.0 / float(b.u) for b in roots.upper])
    x = (w @ xk) / w.sum()
    x, y = _julia_zero(xk, yk2, m, x,
                       math.sqrt(w @ ((xk - x) ** 2 + yk2) / w.sum()))
    # the weights sqrt(p_k) there, normalized to sum m_k log p_k = 0
    log_d = np.log((x - xk) ** 2 + y * y + yk2)
    root_p = np.exp(((m @ log_d) / m.sum() - log_d) / 2).tolist()
    weights = JuliaWeights(t=tuple(root_p[:r]), u=tuple(root_p[r:]))
    # the zero is the iterate: Q's zero map would cancel digits in 4AC - B^2
    Q = q_of_weights(roots, weights)
    return JuliaResult(
        quadratic=Q,
        theta=theta0(f, roots, weights),
        weights=weights,
        zero=UhpPoint(float(x), float(y)),
    )
