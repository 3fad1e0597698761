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

One kernel, `_phi`, gives Phi with its derivatives from x_k, y_k^2 and m_k
(m per root): Python floats for one form (`_julia_zero`), numpy columns for a
block of forms (`_julia_zeros`); `_julia_start` gives both Newton's start.
Its exp and log are numpy's on both paths, since math.exp and math.log can
differ from them in the last bit.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .forms import BinaryForm, UpperRootSet, roots_upper
from .hyper import UhpPoint, _big_exponent
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
    """theta_0 of f at the given weights; positive, scale-invariant in w.
    It is the exp of the sum of its factors' logs, so that no factor
    overflows, and math.inf when it is past the doubles itself."""
    if f.coeffs[0] == 0:
        raise DomainError("leading coefficient is zero: shift the form first")
    Q = q_of_weights(roots, w)
    D = float(q_discriminant(Q))
    if D >= 0:
        raise DomainError("degenerate weighted quadratic (disc >= 0)")
    log_theta = (2 * math.log(abs(f.coeffs[0])) + f.degree / 2 * math.log(-D)
                 - 2 * sum(map(math.log, w.t)) - 4 * sum(map(math.log, w.u)))
    return math.exp(log_theta) if log_theta <= _LOG_MAX else math.inf


def _root_terms(roots: UpperRootSet):
    """x_k, y_k and m_k of the terms of Phi, real roots first (y_k = 0);
    unsquared, so that `minimize_theta0` squares y_k after scaling it."""
    r, s = roots.signature
    return (np.array([float(v) for v in roots.real]
                     + [float(b.t) for b in roots.upper]),
            np.array([0.0] * r + [float(b.u) for b in roots.upper]),
            np.array([1.0] * r + [2.0] * s))


def _julia_start(X, Y2):
    """Newton's start: the zero of the quadratic with real-root weight 1 and
    pair weight 1/y_k (the hyperbolic centroid for a totally complex form).
    X and Y2 hold x_k and y_k^2 along their last axis, as for `_phi`."""
    W = 1 / np.sqrt(np.where(Y2 > 0, Y2, 1.0))
    w = W.sum(axis=-1)
    x = (W * X).sum(axis=-1) / w
    d = X - x[..., None]
    return x, np.sqrt((W * (d * d + Y2)).sum(axis=-1) / w)


_AS_IS = contextlib.nullcontext()  # leaves numpy's errstate as it is


def _phi(X, Y2, m, x, s):
    """Phi at the zero (x, e^s), its frame gradient (y dPhi/dx, dPhi/ds) and
    Hessian (h00, h01, h11) in the frame (dx / y, ds), Phi = inf where any is
    not finite.  X, Y2 and m hold x_k, y_k^2 and m_k per root: floats for
    one form, with x and s floats, which takes one np.exp and one np.log of
    its K values D_k, or for a block columns of shape (rows,), as x and s
    are."""
    one = not isinstance(s, np.ndarray)
    # numpy warns only where e^s overflows or a D_k is 0 (y underflows at a
    # real root); one form returns Phi = inf at a D_k = 0 before its float
    # division would raise, so below e^709 it needs no errstate
    with (_AS_IS if one and s < 709 else
          np.errstate(over="ignore", divide="ignore", invalid="ignore")):
        y = float(np.exp(s)) if one else np.exp(s)
        yy, y2, yy2 = y * y, 2 * y, 2 * y * y
        d = [x - xk for xk in X]
        D = [dk * dk + yy + yk2 for dk, yk2 in zip(d, Y2)]
        if one and not all(D):
            return math.inf, (math.nan, math.nan), (math.nan,) * 3
        log_d = np.log(D).tolist() if one else map(np.log, D)
        n = phi = g0 = q = a00 = a01 = a11 = 0.0
        for dk, Dk, lk, mk in zip(d, D, log_d, m):
            # the term m_k log D_k, its frame gradient m_k (e0, e1) and the
            # sums of m_k e_i e_j that the Hessian subtracts
            e0, e1 = y2 * dk / Dk, yy2 / Dk
            me0, me1 = mk * e0, mk * e1
            n += mk
            phi = phi + mk * lk
            g0, q = g0 + me0, q + me1
            a00, a01, a11 = a00 + me0 * e0, a01 + me0 * e1, a11 + me1 * e1
        P = (phi - n * s, g0, q - n, q - a00, -a01, 2 * q - a11)
    if one:
        phi = P[0] if all(map(math.isfinite, P)) else math.inf
        return phi, P[1:3], P[3:]
    P = np.array(P)
    P[0, ...][~np.isfinite(P).all(axis=0)] = math.inf  # P[0, ...] is a view
    return P[0], P[1:3], P[3:]


def _newton_step(g, H):
    """The step of one form's frame gradient g and Hessian H: Newton's
    -H^-1 g by the closed-form 2x2 solve where H is positive definite, else
    -g_i / h_ii where both h_ii > 0, else -g; in floats."""
    (g0, g1), (h00, h01, h11) = g, H
    det = h00 * h11 - h01 * h01
    if h00 > 0 and det > 0:
        return (h01 * g1 - h11 * g0) / det, (h01 * g0 - h00 * g1) / det
    if h00 > 0 and h11 > 0:
        return -g0 / h00, -g1 / h11
    return -g0, -g1


def _newton_steps(g, H):
    """`_newton_step` on a block's columns: the Newton step of every row,
    then, by index, the other rules on the few rows whose H is not positive
    definite.  As there, an infinite det counts as positive and a nan det
    does not."""
    h00, h01, h11 = H
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        det = h00 * h11 - h01 * h01
        step = np.array((h01 * g[1] - h11 * g[0],
                         h01 * g[0] - h00 * g[1])) / det
        i = np.flatnonzero(~((h00 > 0) & (det > 0)))
        h = np.array((h00[i], h11[i]))
        step[:, i] = -g[:, i] / np.where((h > 0).all(axis=0), h, 1.0)
    return step


def _absmax(g):
    """max |g_i| of one form's frame gradient; nan if either is nan."""
    a, b = abs(g[0]), abs(g[1])
    return a if a >= b or a != a else b


# Both solvers stop at a hyperbolic gradient below _GRAD_TOL, halve a rejected
# step at most _HALVINGS times and give up after _MAX_STEPS steps.  A trial
# point is taken when it lowers Phi or, since near the minimum Phi ties at
# rounding level, when it raises Phi by at most _PHI_RTOL (1 + |Phi|) and
# halves the gradient.  A solve on the mixed population or the r2=4
# pentagons takes at most 13 steps, one from a far start hundreds: 279 for
# the roots 5 * 2^498 and +-2^-234, whose start is 10^220 times as high as
# the zero.  The budget leaves such a solve room to cross the doubles'
# range and bounds the cost of one that never converges.
_GRAD_TOL = 1e-10
_PHI_RTOL = 1e-12
_HALVINGS = 60
_MAX_STEPS = 1000

# The largest log a double's theta_0 can have
_LOG_MAX = math.log(sys.float_info.max)


def _julia_zero(X: np.ndarray, Y2: np.ndarray, m: np.ndarray, x: float,
                y: float):
    """Damped Newton on Phi(x, s), y = e^s, from (x, y) to a hyperbolic
    gradient (y dPhi/dx, dPhi/ds) below 1e-10; returns the minimizer (x, y).
    Steps are `_newton_step`'s, taken in the frame (dx / y, ds): where the
    Hessian is not positive definite, as along the nearly flat ds direction
    of the roots -1.2e7, 0, 1, 1.2e7, they are the diagonal steps, which do
    not zigzag there as the negative gradient does.  Raises
    ConvergenceError when the line search stalls or the step budget runs
    out.  It runs on Python floats."""
    X, Y2, m = X.tolist(), Y2.tolist(), m.tolist()
    x, s = float(x), math.log(y)
    phi, g, H = _phi(X, Y2, m, x, s)
    for _ in range(_MAX_STEPS):
        gnorm = _absmax(g)
        step = _newton_step(g, H)
        y = math.exp(s)
        if gnorm < _GRAD_TOL:
            # the test bounds the error only up to the Hessian's
            # conditioning; one more step from here lands at rounding level
            trial = _phi(X, Y2, m, x + y * step[0], s + step[1])
            if _absmax(trial[1]) <= gnorm:
                x, s = x + y * step[0], s + step[1]
            return x, math.exp(s)
        for _ in range(_HALVINGS):
            trial = _phi(X, Y2, m, x + y * step[0], s + step[1])
            if trial[0] < phi or (
                    trial[0] < phi + _PHI_RTOL * (1 + abs(phi))
                    and _absmax(trial[1]) < 0.5 * gnorm):
                x, s = x + y * step[0], s + step[1]
                phi, g, H = trial
                break
            step = step[0] / 2, step[1] / 2
        else:
            break  # the line search stalled
    raise ConvergenceError(
        f"theta_0 minimization did not reach tol={_GRAD_TOL:g}")


def _julia_zeros(X: np.ndarray, Y2: np.ndarray, m: np.ndarray, x, y):
    """`_julia_zero` on every row at once (X and Y2 of shape (rows, K), m
    per root, x and y the start points): each row takes the scalar solver's
    steps, stopping rule and line search, and leaves the iteration when it
    converges or stalls.  Returns the zeros (x, y) and a mask of the rows
    whose line search stalled or ran out of steps, where (x, y) is
    meaningless."""
    x, s = np.array(x, dtype=np.float64), np.log(y)
    phi, g, H = _phi(X.T, Y2.T, m, x, s)
    stalled = np.zeros(len(x), dtype=bool)
    live = np.arange(len(x))
    for _ in range(_MAX_STEPS):
        if not live.size:
            break
        gl = g[:, live]
        gnorm = np.abs(gl).max(axis=0)
        step = _newton_steps(gl, H[:, live])
        y = np.exp(s[live])
        done = gnorm < _GRAD_TOL
        # converged rows: one more step unless it raises the gradient
        rows = live[done]
        xt, st = x[rows] + y[done] * step[0, done], s[rows] + step[1, done]
        gt = _phi(X[rows].T, Y2[rows].T, m, xt, st)[1]
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
            pt, gt, ht = _phi(X[rows].T, Y2[rows].T, m, xt, st)
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
    xk, yk, m = _root_terms(roots)
    # Phi(2^e z; 2^e roots) = Phi(z; roots) + n e log 2, and the normalized
    # weights do not change: roots past hyper._BIG_ROOT, whose D_k may
    # overflow, are solved scaled by the least 2^-e that brings them below it
    # (so the small roots keep their range), and the zero is scaled back
    e = _big_exponent(float(max(np.abs(xk).max(), yk.max())))
    xk, yk2 = np.ldexp(xk, -e), np.ldexp(yk, -e) ** 2
    x, y = _julia_zero(xk, yk2, m, *_julia_start(xk, yk2))
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
        zero=UhpPoint(math.ldexp(x, e), math.ldexp(y, e)),
    )
