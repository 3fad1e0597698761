import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import formred.julia
from formred import (BinaryForm, ConvergenceError, DomainError, JuliaWeights,
                     UhpPoint, UnimodularMatrix, UpperRootSet,
                     from_upper_roots, hyperbolic_centroid, lattice_points,
                     minimize_theta0,
                     mobius, nint, primitive,
                     q_discriminant, q_of_weights, reduce_julia, roots_upper,
                     shift, theta0, transform)
from conftest import random_upper_points
from formred.julia import (_julia_start, _julia_zero, _julia_zeros,
                           _newton_step, _newton_steps, _phi, _root_terms)
from oracles import (julia_zero_grid, julia_zero_reference, random_sl2,
                     theta0_log_gradient)

TRI_JULIA_ZERO = (10.5663210488, 15.8456762537)  # grid + Nelder-Mead oracle


def _rootset(upper=(), real=()):
    return UpperRootSet(upper=tuple(UhpPoint(x, y) for x, y in upper),
                        real=tuple(real))


def test_q_of_weights_examples():
    Q = q_of_weights(_rootset(upper=[(0, 1)]), JuliaWeights(t=(), u=(1,)))
    assert (Q.a, Q.b, Q.c) == (2, 0, 2)

    Q = q_of_weights(_rootset(upper=[(1, 19), (2, 19), (19, 1)]),
                     JuliaWeights(t=(), u=(1, 1, 1)))
    assert (Q.a, Q.b, Q.c) == (6, -88, 2178)

    Q = q_of_weights(_rootset(real=[0.0, 2.0]), JuliaWeights(t=(1, 1), u=()))
    assert (Q.a, Q.b, Q.c) == (2, -4, 4)

    with pytest.raises(ValueError):
        q_of_weights(_rootset(upper=[(0, 1)]), JuliaWeights(t=(1,), u=(1,)))
    with pytest.raises(ValueError):
        JuliaWeights(t=(-1,), u=())


def test_theta0_triangle_value(triangle):
    rs = roots_upper(triangle)
    w = JuliaWeights(t=(), u=(1.0, 1.0, 1.0))
    assert abs(theta0(triangle, rs, w) - 44528 ** 3) < 1e3  # 8.83e13, doubles


def test_theta0_scale_invariance(rng, triangle):
    rs = roots_upper(triangle)
    for _ in range(200):
        w = JuliaWeights(t=(), u=tuple(rng.uniform(0.2, 5, 3)))
        lam = float(rng.uniform(0.1, 10))
        w2 = JuliaWeights(t=(), u=tuple(lam * v for v in w.u))
        t1, t2 = theta0(triangle, rs, w), theta0(triangle, rs, w2)
        assert abs(t1 - t2) / t1 < 1e-12


def test_theta0_quadratic_is_constant():
    # for [a, b, c] theta_0 = 4 |disc|, independent of the weight
    f = BinaryForm((1, 0, 2))
    rs = roots_upper(f)
    vals = [theta0(f, rs, JuliaWeights(t=(), u=(u,))) for u in (0.3, 1.0, 7.5)]
    assert all(abs(v - 32.0) < 1e-9 for v in vals)
    res = minimize_theta0(f)
    assert abs(res.theta - 32.0) < 1e-9
    assert abs(float(res.zero.t)) < 1e-12
    assert abs(float(res.zero.u) - math.sqrt(2)) < 1e-12
    # Julia quadratic proportional to f itself
    assert abs(res.quadratic.b) < 1e-12
    assert abs(res.quadratic.c / res.quadratic.a - 2.0) < 1e-12


def test_theta0_and_zero_past_the_doubles():
    # theta_0 = 4 |disc| for [a, b, c]: it comes from logs, so c_0^2 may
    # overflow, and it is math.inf where it is past the doubles itself;
    # roots past 2^500 are solved scaled, and the zero is scaled back
    for coeffs, theta, u in (((2 ** 600, 0, 1), 2.0 ** 604, 2.0 ** -300),
                             ((1, 0, 2 ** 1010), 2.0 ** 1014, 2.0 ** 505),
                             ((2 ** 512, 0, 2 ** 512), math.inf, 1.0),
                             ((1, 0, 2 ** 1023), math.inf, 2.0 ** 511.5)):
        res = minimize_theta0(BinaryForm(coeffs))
        assert res.theta == pytest.approx(theta, rel=1e-12), coeffs
        assert res.zero.t == 0 and res.zero.u == pytest.approx(u, rel=1e-12)
    # a leading coefficient 2^600 leaves the roots and the zero as they are
    cubic = (1, -6, 11, -6)
    res = minimize_theta0(BinaryForm(tuple(c << 600 for c in cubic)))
    assert res.theta == math.inf
    assert res.zero == minimize_theta0(BinaryForm(cubic)).zero


def test_minimize_theta0_triangle_matches_grid_oracle(triangle):
    res = minimize_theta0(triangle)
    assert abs(float(res.zero.t) - TRI_JULIA_ZERO[0]) < 1e-6
    assert abs(float(res.zero.u) - TRI_JULIA_ZERO[1]) < 1e-6
    # live oracle, straight from the theta_0 definition
    zt, zu = julia_zero_grid(triangle.coeffs, [(1, 19), (2, 19), (19, 1)])
    assert abs(float(res.zero.t) - zt) < 1e-6
    assert abs(float(res.zero.u) - zu) < 1e-6


def test_minimize_theta0_normalization(triangle):
    res = minimize_theta0(triangle)
    prod = math.prod(v ** 2 for v in res.weights.t) * math.prod(
        v ** 4 for v in res.weights.u)
    assert abs(prod - 1) < 1e-12
    assert q_discriminant(res.quadratic) < 0
    assert res.theta > 0


def test_minimize_theta0_shift_equivariance(triangle):
    res = minimize_theta0(triangle)
    res2 = minimize_theta0(shift(triangle, -1))  # roots move by +1
    assert abs(float(res2.zero.t) - (float(res.zero.t) + 1)) < 1e-9
    assert abs(float(res2.zero.u) - float(res.zero.u)) < 1e-9


def test_minimize_theta0_degenerate_inputs():
    with pytest.raises(DomainError):
        minimize_theta0(BinaryForm((1, 0, -1)))  # two real roots only
    with pytest.raises(DomainError):
        minimize_theta0(BinaryForm((0, 1, 0, 1)))  # root at infinity


def test_minimize_theta0_totally_real():
    # (x - y) x (x + y): three distinct real roots
    f = BinaryForm((1, 0, -1, 0))
    res = minimize_theta0(f)
    assert res.theta > 0
    zt, zu = float(res.zero.t), float(res.zero.u)
    assert abs(zt) < 1e-9  # symmetric root set
    assert zu > 0


def test_minimize_theta0_mixed_signature_quintic():
    # (x - 2y)(x^2 + y^2)(x^2 - 4xy + 5y^2): signature (1, 2)
    f = BinaryForm((1, -6, 14, -16, 13, -10))
    assert roots_upper(f).signature == (1, 2)
    res = minimize_theta0(f)
    M = UnimodularMatrix(2, 1, 3, 2)
    res2 = minimize_theta0(transform(f, M))
    assert abs(res2.theta - res.theta) / res.theta < 1e-9
    z = mobius(M.inverse(), res.zero)
    assert abs(float(z.t) - float(res2.zero.t)) < 1e-9
    assert abs(float(z.u) - float(res2.zero.u)) < 1e-9


def test_theta_invariance_small(rng, triangle):
    base = minimize_theta0(triangle).theta
    for _ in range(50):
        M = UnimodularMatrix(*random_sl2(rng))
        th = minimize_theta0(transform(triangle, M)).theta
        assert abs(th - base) / base < 1e-6


def test_zero_equivariance_small(rng):
    for _ in range(50):
        pts = random_upper_points(rng, int(rng.integers(2, 4)), coord_max=8)
        f = from_upper_roots([UhpPoint(x, y) for x, y in pts])
        M = UnimodularMatrix(*random_sl2(rng))
        res = minimize_theta0(f)
        res2 = minimize_theta0(transform(f, M))
        zz = mobius(M.inverse(), res.zero)
        assert abs(float(zz.t) - float(res2.zero.t)) < 1e-6
        assert abs(float(zz.u) - float(res2.zero.u)) < 1e-6


def test_restart_stability(rng, pentagon):
    rs = roots_upper(pentagon)
    xk, yk, m = _root_terms(rs)
    yk2 = yk * yk
    zeros = []
    for _ in range(20):
        x, y = _julia_zero(xk, yk2, m, rng.uniform(-30, 30),
                           math.exp(rng.uniform(-3, 4)))
        p = 1 / ((x - xk) ** 2 + y * y + yk2)  # theta_0's weights at z
        G = theta0_log_gradient((), [(b.t, b.u) for b in rs.upper], (),
                                np.sqrt(p), pentagon.degree)
        assert max(map(abs, G)) < 1e-10
        zeros.append((x, y))
    # unique minimum regardless of the start
    assert np.max(np.abs(np.array(zeros) - zeros[0])) < 1e-6


def test_flat_direction_zero_converges():
    # real roots -1.2e7, 0, 1, 1.2e7: the Hessian turns indefinite along the
    # nearly flat ds direction, where -g steps would zigzag in x; the
    # diagonal steps reach the minimum
    f = BinaryForm((-659892, -659892, 10 ** 20, -10 ** 20, -3492407))
    rs = roots_upper(f)
    assert rs.signature == (4, 0)
    xk, yk, m = _root_terms(rs)
    yk2 = yk * yk
    x, y = _julia_zero(xk, yk2, m, *_julia_start(xk, yk2))
    G = theta0_log_gradient(rs.real, (), np.sqrt(1 / ((x - xk) ** 2 + y * y)),
                            (), f.degree)
    assert max(map(abs, G)) < 1e-8
    r = reduce_julia(f)
    assert r.output_height <= r.input_height
    assert primitive(transform(f, r.matrix)) == r.output


def test_flat_direction_zero_hands_over_early(monkeypatch):
    # the Phi evaluations of one solve: the flat quartic of
    # test_flat_direction_zero_converges, and the roots 5 * 2^498 and
    # +-2^-234, whose start lies far above the zero.  Steps along -g where
    # the Hessian is not positive definite would zigzag on both, for
    # thousands of evaluations; the diagonal steps take 21 and 294
    flat = BinaryForm((-659892, -659892, 10 ** 20, -10 ** 20, -3492407))
    far = BinaryForm((1, -5 * 2 ** 498, 0, 2 ** 32))
    calls = []
    monkeypatch.setattr(formred.julia, "_phi",
                        lambda *a: calls.append(1) or _phi(*a))
    r = reduce_julia(flat)
    assert len(calls) <= 50
    assert r.output.coeffs == (659892, 3299460, -99999999999994060972,
                               -99999999999995380756, 4812191)
    assert r.matrix == UnimodularMatrix(1, 1, 0, 1)
    calls.clear()
    r = reduce_julia(far)
    assert len(calls) <= 600
    assert r.output == far and r.matrix == UnimodularMatrix.identity()


def test_newton_steps_match_scalar(rng):
    # the block's step rule is the scalar one, row by row: Newton where H is
    # positive definite, -g_i / h_ii where both h_ii > 0, else -g; an
    # infinite det counts as positive and a nan det as not, on both paths
    g = rng.normal(size=(2, 300))
    H = rng.normal(size=(3, 300))
    H[:, :4] = np.array([(1e200, 0.0, 1e200), (1.0, math.nan, 2.0),
                         (math.inf, 1.0, 0.0), (2.0, 1e200, 3.0)]).T
    h00, h01, h11 = H
    with np.errstate(over="ignore", invalid="ignore"):
        det = h00 * h11 - h01 * h01
    newton = (h00 > 0) & (det > 0)
    diagonal = ~newton & (h00 > 0) & (h11 > 0)
    assert newton.sum() > 20 and diagonal.sum() > 20
    assert (~newton & ~diagonal).sum() > 20
    steps = _newton_steps(g, H)
    for i in range(g.shape[1]):
        np.testing.assert_array_equal(
            steps[:, i], _newton_step(g[:, i].tolist(), H[:, i].tolist()))


def test_stalled_line_search_raises(monkeypatch):
    # Phi = inf everywhere but at the start: the line search stalls after
    # all its halvings (the last ones round back onto the start, whose Phi
    # is no lower), and the solve gives up after 1 + _HALVINGS evaluations
    calls = []

    def inf_off_the_start(X, Y2, m, x, s):
        calls.append((x, s))
        if (x, s) == calls[0]:
            return _phi(X, Y2, m, x, s)
        return math.inf, (math.nan, math.nan), (math.nan,) * 3

    monkeypatch.setattr(formred.julia, "_phi", inf_off_the_start)
    with pytest.raises(ConvergenceError, match="did not reach"):
        minimize_theta0(BinaryForm((1, -6, 11, -6)))
    assert len(calls) == 1 + formred.julia._HALVINGS == 61


@pytest.mark.parametrize("r, s", [(1, 2), (3, 1), (2, 3), (5, 0)])
def test_phi_numbers_match_columns(rng, r, s):
    # one form's entries as floats against a block's columns at its row:
    # the same operations in the same order, so the same bits
    rows = 40
    X = np.hstack((rng.uniform(-20, 20, (rows, r)),
                   rng.uniform(-20, 20, (rows, s))))
    Y2 = np.hstack((np.zeros((rows, r)), rng.uniform(0.1, 20, (rows, s)) ** 2))
    m = np.array([1.0] * r + [2.0] * s)
    x, lny = rng.uniform(-30, 30, rows), rng.uniform(-3, 4, rows)
    block = _phi(X.T, Y2.T, m, x, lny)
    for i in range(rows):
        single = _phi(X[i].tolist(), Y2[i].tolist(), m.tolist(), float(x[i]),
                      float(lny[i]))
        for a, b in zip(single, block):
            np.testing.assert_array_equal(np.array(a), b[..., i])


def test_phi_logs_are_numpys(rng):
    # one root pair at x = 0 with y_k^2 = D - 1 gives Phi(0, 1) = 2 log D
    # exactly, for D in [1, 2); on x86-64 with AVX-512 math.log differs from
    # numpy's log in the last bit at about 0.3 % of these D, so the values
    # where they differ come first
    D = (1 + rng.random(20000)).tolist()
    logs = np.log(D).tolist()
    pairs = sorted(zip(D, logs), key=lambda p: math.log(p[0]) == p[1])
    for d, log_d in pairs[:200]:
        assert _phi([0.0], [d - 1], [2.0], 0.0, 0.0)[0] == 2 * log_d


@st.composite
def _root_sets(draw):
    """x_k, y_k^2 and m_k of a totally real (3 to 6 distinct real roots),
    mixed or totally complex root set on the grid (1/8) Z, and a start."""
    kind = draw(st.sampled_from(["real", "mixed", "complex"]))
    r = (draw(st.integers(3, 6)) if kind == "real"
         else draw(st.integers(1, 4)) if kind == "mixed" else 0)
    s = 0 if kind == "real" else draw(st.integers(1, 4))
    real = draw(st.lists(st.integers(-160, 160), min_size=r, max_size=r,
                         unique=True))
    pairs = draw(st.lists(st.tuples(st.integers(-160, 160),
                                    st.integers(1, 160)),
                          min_size=s, max_size=s))
    X = np.array([v / 8 for v in real] + [t / 8 for t, _ in pairs])
    Y2 = np.array([0.0] * r + [(u / 8) ** 2 for _, u in pairs])
    m = np.array([1.0] * r + [2.0] * s)
    return X, Y2, m, draw(st.floats(-30, 30)), math.exp(draw(st.floats(-3, 4)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_root_sets())
def test_julia_zero_matches_numpy_reference(case):
    # the float solve takes the numpy-scalar solve's steps bit for bit
    try:
        got = [float(v).hex() for v in _julia_zero(*case)]
    except ConvergenceError:
        got = None
    want = julia_zero_reference(*case)
    assert got == (want and [float(v).hex() for v in want])


def test_underflowing_trial_point_is_rejected(monkeypatch):
    # at s = -800, y = e^s underflows to 0, so D_k = 0 at the real root 0:
    # Phi is inf on both paths, and a solve whose first step lands there
    # halves it, without a ZeroDivisionError
    X, Y2, m = np.array([0.0, 1.0, 3.0]), np.zeros(3), np.ones(3)
    assert _phi(X.tolist(), Y2.tolist(), m.tolist(), 0.0, -800.0)[0] == \
        math.inf
    assert _phi(X[:, None], Y2[:, None], m, np.zeros(1),
                np.full(1, -800.0))[0][0] == math.inf
    want = _julia_zero(X, Y2, m, 0.0, 1.0)
    step, steps = formred.julia._newton_step, []

    def first_step_down(g, H):
        steps.append(g)
        return (0.0, -800.0) if len(steps) == 1 else step(g, H)

    monkeypatch.setattr(formred.julia, "_newton_step", first_step_down)
    x, y = _julia_zero(X, Y2, m, 0.0, 1.0)
    assert len(steps) > 1
    assert abs(x - want[0]) < 1e-9 and abs(y - want[1]) < 1e-9


def test_julia_start_is_hyperbolic_centroid(rng):
    for _ in range(30):
        pts = random_upper_points(rng, int(rng.integers(1, 7)))
        xk, yk, _ = _root_terms(_rootset(upper=pts))
        yk2 = yk * yk
        c = hyperbolic_centroid([UhpPoint(x, y) for x, y in pts])
        x, y = _julia_start(xk, yk2)
        assert abs(x - float(c.t)) < 1e-12 and abs(y - float(c.u)) < 1e-12


@pytest.mark.parametrize("r2, k", [(3, 4), (4, 3)])
def test_batched_zeros_match_scalar(r2, k):
    # every n-gon of the database, from minimize_theta0's start
    rows = np.array(list(itertools.combinations(lattice_points(r2), k)),
                    dtype=np.float64)
    X, Y2 = rows[..., 0], rows[..., 1] ** 2
    x0, y0 = _julia_start(X, Y2)
    m = np.full(k, 2.0)
    x, y, stalled = _julia_zeros(X, Y2, m, x0, y0)
    assert not stalled.any()
    for i in range(len(rows)):
        zx, zy = _julia_zero(X[i], Y2[i], m, x0[i], y0[i])
        assert abs(x[i] - zx) < 1e-12 and abs(y[i] - zy) < 1e-12


def test_batched_restarts_match_scalar(rng, pentagon):
    xk, yk, m = _root_terms(roots_upper(pentagon))
    yk2 = yk * yk
    x0 = rng.uniform(-30, 30, 20)
    y0 = np.exp(rng.uniform(-3, 4, 20))
    x, y, stalled = _julia_zeros(np.tile(xk, (20, 1)), np.tile(yk2, (20, 1)),
                                 m, x0, y0)
    assert not stalled.any()
    for i in range(20):
        zx, zy = _julia_zero(xk, yk2, m, x0[i], y0[i])
        assert abs(x[i] - zx) < 1e-12 and abs(y[i] - zy) < 1e-12


def test_palindromic_zero_on_unit_circle():
    # f(y, x) = +-f(x, y): the roots are fixed by z -> 1/conj(z), so the
    # Julia zero is too, and |z| = 1
    for coeffs in ((3, -5, -5, 3), (3, 5, -5, -3), (1, 2, -7, 2, 1),
                   (2, 1, 1, 2)):
        z = minimize_theta0(BinaryForm(coeffs)).zero
        assert abs(float(z.t) ** 2 + float(z.u) ** 2 - 1) < 1e-11, coeffs


def test_zero_fixed_by_form_symmetry():
    # f(-2y, 3x) = 36 f(x, y): the zero is fixed by z -> -2/(3z), so it is
    # i sqrt(2/3); stopping at a 1e-10 gradient can leave it 2.9e-9 away
    z = minimize_theta0(BinaryForm((9, 33, 18, -22, 4))).zero
    assert abs(float(z.t)) < 1e-12
    assert abs(float(z.u) - math.sqrt(2 / 3)) < 1e-12


def test_symmetric_zero_rounds_as_a_tie():
    # roots mirrored about Re = -1/2 put the Julia zero on it; the Julia shift
    # must then round the tie away from zero, as the com shift does
    pts = tuple(UhpPoint(x, y) for x, y in ((-2, 1), (-2, 2), (1, 1), (1, 2)))
    res = minimize_theta0(from_upper_roots(pts),
                          roots=UpperRootSet(upper=pts, real=()))
    assert res.zero.t == -0.5
    assert nint(res.zero.t, "away") == -1


def test_julia_reduce_identity_when_reduced():
    f = BinaryForm((1, 0, 1))
    r = reduce_julia(f)
    assert r.output == f and r.matrix == UnimodularMatrix.identity()


def test_julia_reduce_undoes_large_shift(triangle):
    r0 = reduce_julia(triangle)
    r1 = reduce_julia(shift(triangle, 100))
    assert r0.output == r1.output
    assert r1.matrix.b == r0.matrix.b - 100
