import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from formred import (UhpPoint, UnimodularMatrix, center_of_mass,
                     centroid_from_factors, dist_h, hyperbolic_centroid,
                     mobius, nint, psi, reduce_to_fundamental, right_action)
from conftest import random_upper_points
from oracles import (centroid_minimize, centroid_u2_double_sum, dist_crossratio,
                     random_sl2)


def test_mobius_examples():
    z = mobius(UnimodularMatrix.identity(), UhpPoint(0.3, 2))
    assert z.t == 0.3 and z.u == 2.0
    z = mobius(UnimodularMatrix.translation(-7), UhpPoint(Fraction(22, 3), 13))
    assert z.t == Fraction(1, 3) and z.u == 13
    z = mobius(UnimodularMatrix.inversion(), UhpPoint(0, 1))
    assert abs(float(z.t)) < 1e-15 and abs(z.u - 1) < 1e-15


def test_right_action_is_inverse_action():
    M = UnimodularMatrix(2, 3, 1, 2)
    z = UhpPoint(0.7, 1.9)
    w = right_action(z, M)
    back = mobius(M, w)
    assert abs(float(back.t) - 0.7) < 1e-12 and abs(back.u - 1.9) < 1e-12


def test_dist_examples():
    assert abs(dist_h(UhpPoint(0, 1), UhpPoint(0, 2)) - math.log(2)) < 1e-14
    assert dist_h(UhpPoint(1.5, 2.5), UhpPoint(1.5, 2.5)) == 0.0
    assert abs(dist_h(UhpPoint(0, 1), UhpPoint(1, 1)) - math.acosh(1.5)) < 1e-14


def test_dist_against_crossratio(rng):
    for _ in range(500):
        z = (rng.uniform(-5, 5), rng.uniform(0.1, 5))
        w = (rng.uniform(-5, 5), rng.uniform(0.1, 5))
        d1 = dist_h(UhpPoint(*z), UhpPoint(*w))
        d2 = dist_crossratio(z, w)
        assert abs(d1 - d2) < 1e-10
        assert abs(d1 - dist_h(UhpPoint(*w), UhpPoint(*z))) < 1e-14


def test_psi_examples():
    assert psi([5], [3]) == 5
    assert psi([3, 7], [2.5, 2.5]) == 5.0
    assert psi([-2, -4, -38], [38, 38, 2]) == Fraction(-104, 3)
    with pytest.raises(ValueError):
        psi([1, 2], [1])
    with pytest.raises(ValueError):
        psi([1], [0])


def test_psi_range(rng):
    for _ in range(300):
        n = int(rng.integers(1, 8))
        x = [float(v) for v in rng.uniform(-10, 10, n)]
        y = [float(v) for v in rng.uniform(0.1, 10, n)]
        v = psi(x, y)
        assert min(x) - 1e-12 <= v <= max(x) + 1e-12


def test_center_of_mass_examples():
    c = center_of_mass([UhpPoint(1, 19), UhpPoint(2, 19), UhpPoint(19, 1)])
    assert c.t == Fraction(22, 3) and c.u == 13
    p = UhpPoint(2.5, 0.5)
    c = center_of_mass([p])
    assert c.t == 2.5 and c.u == 0.5
    pts = [UhpPoint(x, y) for x, y in ((1, 5), (1, 6), (2, 6), (3, 3), (6, 1))]
    c = center_of_mass(pts)
    assert c.t == Fraction(13, 5) and c.u == Fraction(21, 5)  # (2.6, 4.2)


def test_com_translation_but_not_inversion_equivariance():
    pts = [UhpPoint(0, 2), UhpPoint(1, 1)]
    shifted = [mobius(UnimodularMatrix.translation(3), p) for p in pts]
    c0, c1 = center_of_mass(pts), center_of_mass(shifted)
    assert c1.t - c0.t == 3 and c1.u == c0.u
    S = UnimodularMatrix.inversion()
    inv = [mobius(S, p) for p in pts]
    ci = center_of_mass(inv)
    cm = mobius(S, c0)
    assert abs(float(ci.t) - float(cm.t)) > 1e-3  # genuinely not equivariant


def test_centroid_single_point_and_triangle():
    res = hyperbolic_centroid([UhpPoint(3, 2)])
    assert res.t == 3 and abs(res.u - 2) < 1e-12

    pts = [UhpPoint(1, 19), UhpPoint(2, 19), UhpPoint(19, 1)]
    res = hyperbolic_centroid(pts)
    assert res.t == Fraction(52, 3)
    assert abs(res.u - math.sqrt(3887 / 63)) < 1e-12
    t_o, u_o = centroid_minimize([(1, 19), (2, 19), (19, 1)])
    assert abs(float(res.t) - t_o) < 1e-6
    assert abs(res.u - u_o) < 1e-6


def test_centroid_two_point_symmetry():
    res = hyperbolic_centroid([UhpPoint(0, 1), UhpPoint(4, 1)])
    assert res.t == 2
    assert abs(res.u - math.sqrt(5)) < 1e-12
    assert res.u >= 1
    t_o, u_o = centroid_minimize([(0, 1), (4, 1)])
    assert abs(2 - t_o) < 1e-6 and abs(res.u - u_o) < 1e-6


def test_centroid_result_invariants(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        pts = [UhpPoint(x, y) for x, y in random_upper_points(rng, n)]
        res = hyperbolic_centroid(pts)
        assert isinstance(res, UhpPoint)
        xs = [float(p.t) for p in pts]
        assert min(xs) - 1e-9 <= float(res.t) <= max(xs) + 1e-9
        assert res.u > 0


def test_centroid_is_psi_closed_form(rng):
    # t = psi(x, y), u = sqrt(psi(|z|^2, y) - t^2), bit for bit on both the
    # exact and the float route of psi
    for _ in range(200):
        roots = random_upper_points(rng, int(rng.integers(1, 7)))
        for pts in (roots,
                    [(Fraction(x, 3), Fraction(y, 2)) for x, y in roots],
                    [(x + 0.25, y * 0.75) for x, y in roots],
                    [(x + 0.1, y) for x, y in roots],    # float x, exact y
                    [(x, y + 0.5) for x, y in roots]):   # exact x, float y
            xs = [x for x, _ in pts]
            ys = [y for _, y in pts]
            t = psi(xs, ys)
            u = math.sqrt(float(psi([x * x + y * y for x, y in pts], ys) - t * t))
            got = hyperbolic_centroid([UhpPoint(x, y) for x, y in pts])
            assert got == UhpPoint(t, u)
            assert type(got.t) is type(t) and type(got.u) is float


def test_centroid_matches_objective_minimizer(rng):
    for _ in range(150):
        n = int(rng.integers(2, 7))
        pts = random_upper_points(rng, n)
        res = hyperbolic_centroid([UhpPoint(x, y) for x, y in pts])
        t_o, u_o = centroid_minimize(pts)
        assert abs(float(res.t) - t_o) < 1e-6
        assert abs(float(res.u) - u_o) < 1e-6


def test_centroid_isometry_equivariance(rng):
    for _ in range(200):
        n = int(rng.integers(2, 6))
        pts = [UhpPoint(x, y) for x, y in random_upper_points(rng, n)]
        M = UnimodularMatrix(*random_sl2(rng))
        moved = [mobius(M, p) for p in pts]
        lhs = hyperbolic_centroid(moved)
        rhs = mobius(M, hyperbolic_centroid(pts))
        assert abs(float(lhs.t) - float(rhs.t)) < 1e-8
        assert abs(float(lhs.u) - float(rhs.u)) < 1e-8


def test_centroid_from_factors_examples():
    res = centroid_from_factors([0], [1])
    assert res.t == 0 and abs(res.u - 1) < 1e-12

    res = centroid_from_factors([-2, -4, -38], [362, 365, 362])
    assert res.t == Fraction(52, 3)
    assert abs(res.u - math.sqrt(3887 / 63)) < 1e-12

    res = centroid_from_factors([0, 0], [1, 4])
    assert res.t == 0
    t_o, u_o = centroid_minimize([(0, 1), (0, 2)])
    assert abs(res.u - u_o) < 1e-6

    from formred import DomainError
    with pytest.raises(DomainError):
        centroid_from_factors([4], [1])


def test_centroid_closed_forms_agree(rng):
    # psi route vs the explicit double-sum formula for u^2
    for _ in range(300):
        n = int(rng.integers(1, 7))
        pts = random_upper_points(rng, n)
        a = [-2 * x for x, _ in pts]
        b = [x * x + y * y for x, y in pts]
        res = centroid_from_factors(a, b)
        assert math.isclose(float(res.u) ** 2,
                            centroid_u2_double_sum(a, b), rel_tol=1e-9)
        ref = hyperbolic_centroid([UhpPoint(x, y) for x, y in pts])
        assert res.t == ref.t
        rel = abs(res.u - ref.u) / ref.u
        assert rel < 1e-10


def test_nint_modes():
    assert nint(Fraction(5, 2), "away") == 3
    assert nint(Fraction(-5, 2), "away") == -3
    assert nint(Fraction(5, 2), "even") == 2
    assert nint(Fraction(7, 2), "even") == 4
    assert nint(Fraction(5, 2), "zero") == 2
    assert nint(Fraction(-5, 2), "zero") == -2
    assert nint(Fraction(-5, 2), "up") == -2
    assert nint(2.4999, "away") == 2
    assert nint(2.496, "up-2dp") == 3  # 2dp pre-round lifts it to 2.5
    with pytest.raises(ValueError):
        nint(1.0, "bogus")


@settings(max_examples=500, deadline=None)
@given(x=st.floats(min_value=-2.0 ** 52, max_value=2.0 ** 52,
                   exclude_min=True, exclude_max=True))
def test_nint_up_2dp_is_the_float_formula(x):
    assert nint(x, "up-2dp") == math.floor(round(x, 2) + 0.5)


def test_nint_up_2dp_odd_integer_window():
    # for an odd integer float 2^52 <= |x| < 2^53, x + 0.5 is a binary tie
    # that rounds to the even x + 1; the exact rounding keeps x
    for x in (2.0 ** 52 + 1, 2.0 ** 53 - 1, -(2.0 ** 52 + 3), 3 * 2.0 ** 51 + 1):
        assert math.floor(round(x, 2) + 0.5) == x + 1
        assert nint(x, "up-2dp") == x
    for x in (2.0 ** 52, 2.0 ** 53 - 2, -(2.0 ** 52 + 2)):
        assert nint(x, "up-2dp") == math.floor(round(x, 2) + 0.5) == x


def test_reduce_to_fundamental_examples():
    z, M = reduce_to_fundamental(UhpPoint(Fraction(22, 3), 13))
    assert z.t == Fraction(1, 3) and z.u == 13
    assert M == UnimodularMatrix.translation(7)

    z, M = reduce_to_fundamental(UhpPoint(0, 1))
    assert z.t == 0 and z.u == 1 and M == UnimodularMatrix.identity()

    z, M = reduce_to_fundamental(UhpPoint(0.1, 0.5))
    assert abs(float(z.t) - (-5 / 13)) < 1e-12
    assert abs(float(z.u) - 25 / 13) < 1e-12
    assert M == UnimodularMatrix(0, 1, -1, 0)

    # on the unit circle with Re < 0: the inversion gives the Re > 0 twin
    z, M = reduce_to_fundamental(UhpPoint(Fraction(-7, 25), Fraction(24, 25)))
    assert (z.t, z.u) == (Fraction(7, 25), Fraction(24, 25))
    assert M == UnimodularMatrix(0, 1, -1, 0)


def test_reduce_to_fundamental_properties(rng):
    for _ in range(500):
        z0 = UhpPoint(rng.uniform(-40, 40), rng.uniform(0.05, 40))
        z, M = reduce_to_fundamental(z0)
        t, u = float(z.t), float(z.u)
        assert abs(t) <= 0.5 + 1e-12
        assert t * t + u * u >= 1 - 1e-12
        back = mobius(M.inverse(), z0)
        assert abs(float(back.t) - t) < 1e-9
        assert abs(float(back.u) - u) < 1e-9


def test_uhp_point_validation():
    with pytest.raises(ValueError):
        UhpPoint(0, 0)
    with pytest.raises(ValueError):
        UhpPoint(1, -2)
    for t, u in ((0.3, math.nan), (math.nan, 1), (math.inf, 1.0),
                 (-math.inf, 2), (0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            UhpPoint(t, u)
    big = UhpPoint(10 ** 400, Fraction(10 ** 400, 3))  # exact, past the floats
    assert (big.t, big.u) == (10 ** 400, Fraction(10 ** 400, 3))
