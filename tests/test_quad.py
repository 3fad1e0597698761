import math
from fractions import Fraction

import pytest

from formred import (DomainError, QuadraticForm, UnimodularMatrix,
                     enumerate_reduced, mobius, q_discriminant, q_is_reduced,
                     q_reduce, q_transform, q_zero_map)
from oracles import enumerate_reduced_scan, random_sl2, reduce_quad_brute


def test_discriminant_examples():
    assert q_discriminant(QuadraticForm(1, 0, 1)) == -4
    assert q_discriminant(QuadraticForm(2, 1, 3)) == -23
    assert q_discriminant(QuadraticForm(1, 1, 6)) == -23


def test_zero_map_examples():
    z = q_zero_map(QuadraticForm(1, 0, 1))
    assert z.t == 0 and abs(z.u - 1) < 1e-15
    z = q_zero_map(QuadraticForm(2, -2, 3))
    assert z.t == Fraction(1, 2)
    assert abs(z.u - math.sqrt(20) / 4) < 1e-12
    z = q_zero_map(QuadraticForm(1, -1, 1))
    assert z.t == Fraction(1, 2) and abs(z.u - math.sqrt(3) / 2) < 1e-12
    with pytest.raises(DomainError):
        q_zero_map(QuadraticForm(1, 3, 1))


def test_is_reduced_examples():
    assert q_is_reduced(QuadraticForm(1, 1, 6))
    assert not q_is_reduced(QuadraticForm(2, 4, 5))
    assert q_is_reduced(QuadraticForm(1, 0, 1))


def test_q_reduce_examples():
    Q, M = q_reduce(QuadraticForm(2, 4, 5))
    assert (Q.a, Q.b, Q.c) == (2, 0, 3)
    assert q_discriminant(Q) == -24
    assert q_transform(QuadraticForm(2, 4, 5), M) == Q

    Q, M = q_reduce(QuadraticForm(1, 0, 1))
    assert (Q.a, Q.b, Q.c) == (1, 0, 1)
    assert M == UnimodularMatrix.identity()

    # a float coefficient is refused, not truncated to another form
    for bad in (QuadraticForm(1.5, 0, 2), QuadraticForm(1, 0.25, 2),
                QuadraticForm(1, 0, Fraction(5, 2))):
        with pytest.raises(DomainError, match="integer"):
            q_reduce(bad)
    Q, _ = q_reduce(QuadraticForm(2.0, 4, 5.0))  # integer values are kept
    assert (Q.a, Q.b, Q.c) == (2, 0, 3)

    # golden value fixed by the brute-force word search
    assert reduce_quad_brute((5, 4, 1)) == (1, 0, 1)
    Q, _ = q_reduce(QuadraticForm(5, 4, 1))
    assert (Q.a, Q.b, Q.c) == (1, 0, 1)


def test_q_reduce_matches_brute_force(rng):
    for _ in range(60):
        a = int(rng.integers(1, 30))
        b = int(rng.integers(-30, 31))
        cmin = (b * b) // (4 * a) + 1
        c = cmin + int(rng.integers(0, 30))
        Q, M = q_reduce(QuadraticForm(a, b, c))
        assert q_is_reduced(Q)
        assert q_transform(QuadraticForm(a, b, c), M) == Q
        assert reduce_quad_brute((a, b, c)) == (Q.a, Q.b, Q.c)


def test_q_reduce_properties(rng):
    for _ in range(300):
        a = int(rng.integers(1, 60))
        b = int(rng.integers(-120, 121))
        cmin = (b * b) // (4 * a) + 1
        c = cmin + int(rng.integers(0, 80))
        Q0 = QuadraticForm(a, b, c)
        Q, M = q_reduce(Q0)
        assert abs(Q.b) <= Q.a <= Q.c
        assert q_discriminant(Q) == q_discriminant(Q0)
        z = q_zero_map(Q)
        assert abs(float(z.t)) <= 0.5 + 1e-12
        assert float(z.t) ** 2 + float(z.u) ** 2 >= 1 - 1e-12


def test_disc_invariance_and_equivariance(rng):
    for _ in range(300):
        a = int(rng.integers(1, 30))
        b = int(rng.integers(-30, 31))
        c = (b * b) // (4 * a) + 1 + int(rng.integers(0, 30))
        Q = QuadraticForm(a, b, c)
        M = UnimodularMatrix(*random_sl2(rng))
        QM = q_transform(Q, M)
        assert q_discriminant(QM) == q_discriminant(Q)
        lhs = q_zero_map(QM)
        rhs = mobius(M.inverse(), q_zero_map(Q))
        assert abs(float(lhs.t) - float(rhs.t)) < 1e-10
        assert abs(float(lhs.u) - float(rhs.u)) < 1e-10


def test_enumerate_reduced_examples():
    forms = enumerate_reduced(23)
    assert [(Q.a, Q.b, Q.c) for Q in forms] == [(1, 1, 6), (2, 1, 3), (2, -1, 3)]
    assert [(Q.a, Q.b, Q.c) for Q in enumerate_reduced(4)] == [(1, 0, 1)]
    assert [(Q.a, Q.b, Q.c) for Q in enumerate_reduced(3)] == [(1, 1, 1)]
    with pytest.raises(ValueError):
        enumerate_reduced(5)
    with pytest.raises(ValueError):
        enumerate_reduced(-4)


def test_enumerate_reduced_against_scan():
    for D in (3, 4, 23, 23 * 4, 47, 48, 51, 84, 163, 407, 420):
        got = {(Q.a, Q.b, Q.c) for Q in enumerate_reduced(D)}
        assert got == enumerate_reduced_scan(D), f"D={D}"
        gotp = {(Q.a, Q.b, Q.c) for Q in enumerate_reduced(D, primitive_only=True)}
        assert gotp == enumerate_reduced_scan(D, primitive_only=True), f"D={D}"
        assert all(b <= math.isqrt(D // 3) + 1 for _, b, _ in got)


def test_enumerate_reduced_deterministic():
    assert enumerate_reduced(420) == enumerate_reduced(420)


def test_class_numbers():
    # h(-D) for a few textbook discriminants
    for D, h in ((3, 1), (4, 1), (23, 3), (47, 5), (71, 7), (163, 1)):
        assert len(enumerate_reduced(D, primitive_only=True)) == h
