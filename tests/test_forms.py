import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import reduce as fold

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import formred
import formred.cli
import formred.reduce
from formred import (BinaryForm, ConvergenceError, UhpPoint, UnimodularMatrix,
                     content, from_upper_roots, height, primitive,
                     roots_upper, shift, transform)
from formred import forms
from formred.dbgen import enumerate_ngons, lattice_points
from formred.forms import _quadratic_product, _taylor_shift
from conftest import (TINY_ROOT_FORMS, TRIANGLE_COEFFS, TRIANGLE_ROOTS,
                      benchmark_workloads, random_form, random_upper_points)
from oracles import (binomial_shift, double_roots_reference, poly_mul,
                     polish_root_reference, transform_reference)


def test_content_examples():
    assert content(BinaryForm((2, 4, 6))) == 2
    assert content(BinaryForm(TRIANGLE_COEFFS)) == fold(
        math.gcd, [abs(c) for c in TRIANGLE_COEFFS])
    assert content(BinaryForm(TRIANGLE_COEFFS)) == 1
    assert content(BinaryForm((-3, -6))) == 3
    assert content(BinaryForm((0, -2**70, 3 * 2**70))) == 2**70
    assert content(BinaryForm((0, 0, -7))) == 7


def test_primitive_examples():
    assert primitive(BinaryForm((2, 4, 6))).coeffs == (1, 2, 3)
    assert primitive(BinaryForm((-1, 0, -1))).coeffs == (1, 0, 1)
    assert primitive(BinaryForm((8, 0, 0, 4))).coeffs == (2, 0, 0, 1)
    assert primitive(BinaryForm((0, -3, 6))).coeffs == (0, 1, -2)
    # a form that is already primitive comes back itself
    for coeffs in ((1, 2, 3), (0, 5, -7), (3, 0, 0, -2), TRIANGLE_COEFFS):
        f = BinaryForm(coeffs)
        assert primitive(f) is f
    g = BinaryForm((-1, 0, 1))
    assert primitive(g) is not g and primitive(g).coeffs == (1, 0, -1)


def test_form_validation():
    with pytest.raises(ValueError):
        BinaryForm((5,))
    with pytest.raises(ValueError):
        BinaryForm((0, 0, 0))
    # xy: both end coefficients zero, yet an SL2(Z) image shift descent can
    # reach (see test_shift_through_both_ends_zero_form)
    assert BinaryForm((0, 1, 0)).coeffs == (0, 1, 0)
    # an entry that is not an integer is refused, not truncated
    for coeffs in ((1.7, 2), ("3", 2), (1.5, 0, 2.9), (1, Fraction(1, 2)),
                   (float("inf"), 1), (float("nan"), 1), (None, 1), (1j, 2)):
        with pytest.raises(ValueError) as exc:
            BinaryForm(coeffs)
        assert str(exc.value) == f"coefficients {coeffs!r} are not all integers"
    # integral floats and numpy integers, in any sequence, become ints
    f = BinaryForm((2.0, np.int64(-3), Fraction(4)))
    assert f.coeffs == (2, -3, 4) and {type(c) for c in f.coeffs} == {int}
    assert BinaryForm([1, 0, 1]).coeffs == BinaryForm(np.array([1, 0, 1])).coeffs \
        == (1, 0, 1)


def test_height_examples(triangle):
    assert height(triangle) == 47_831_060
    assert height(BinaryForm((2, 4, 6))) == 3
    assert height(shift(triangle, 19)) == 447_809


def test_from_upper_roots_examples(triangle, pentagon):
    assert from_upper_roots([UhpPoint(0, 1)]).coeffs == (1, 0, 1)
    assert triangle.coeffs == TRIANGLE_COEFFS
    assert pentagon.coeffs[-1] == 25_627_680
    assert pentagon.degree == 10 and pentagon.coeffs[0] == 1


def test_from_upper_roots_rejects_bad_input():
    with pytest.raises(ValueError):
        from_upper_roots([])
    with pytest.raises(ValueError):
        from_upper_roots([UhpPoint(0, 0.5)])
    with pytest.raises(ValueError):
        from_upper_roots([UhpPoint(0.5, 1)])


def test_transform_examples(triangle):
    ident = UnimodularMatrix.identity()
    assert transform(triangle, ident) == triangle
    assert height(transform(triangle, UnimodularMatrix.translation(7))) == 22_220_090
    assert height(transform(triangle, UnimodularMatrix.translation(17))) == 1_807_810


def test_shift_examples(triangle, pentagon):
    expected = [1]
    for fac in ([1, 0, 1], [1, 34, 650], [1, 36, 685]):
        out = [0] * (len(expected) + 2)
        for i, a in enumerate(expected):
            for j, b in enumerate(fac):
                out[i + j] += a * b
        expected = out
    assert shift(triangle, 19).coeffs == tuple(expected)
    assert shift(triangle, 0) == triangle
    assert height(shift(pentagon, 5)) == 2_494_440


def test_unimodular_matrix():
    M = UnimodularMatrix(2, 3, 1, 2)
    assert (M @ M.inverse()) == UnimodularMatrix.identity()
    assert M.det == 1
    with pytest.raises(ValueError):
        UnimodularMatrix(1, 1, 1, 1)
    for entries in ((1.9, 0, 0, 1), (1, 0.5, 0, 1), ("1", 0, 0, 1),
                    (float("inf"), 0, 0, 1), (1, None, 0, 1), (1, 0, 1j, 1)):
        with pytest.raises(ValueError) as exc:
            UnimodularMatrix(*entries)
        assert str(exc.value) == \
            f"matrix entries {entries!r} are not all integers"
    M = UnimodularMatrix(1.0, np.int64(2), 0, 1)
    assert M == UnimodularMatrix.translation(2)
    assert {type(v) for v in (M.a, M.b, M.c, M.d)} == {int}


def test_roots_upper_examples(triangle):
    rs = roots_upper(BinaryForm((1, 0, 1)))
    assert rs.real == () and len(rs.upper) == 1
    assert abs(rs.upper[0].t) < 1e-12 and abs(rs.upper[0].u - 1) < 1e-12

    rs = roots_upper(triangle)
    got = sorted((round(p.t), round(p.u)) for p in rs.upper)
    assert got == [(1, 19), (2, 19), (19, 1)]
    for p, (x, y) in zip(rs.upper, [(1, 19), (2, 19), (19, 1)]):
        assert abs(p.t - x) < 1e-9 and abs(p.u - y) < 1e-9

    rs = roots_upper(BinaryForm((1, 0, -1)))
    assert rs.upper == ()
    assert sorted(rs.real) == [-1, 1]


def test_roots_upper_infinity_and_repeats():
    # y * (x^2 + y^2): leading zero = one root at infinity
    rs = roots_upper(BinaryForm((0, 1, 0, 1)))
    assert len(rs.upper) == 1 and rs.real == (math.inf,)
    rs = roots_upper(BinaryForm((1, 0, 2, 0, 1)))  # (x^2+y^2)^2
    assert rs.repeated and len(rs.upper) == 2
    # y^2 (x^2+y^2) has a double root at infinity, like its mirror at 0
    rs = roots_upper(BinaryForm((0, 0, 1, 0, 1)))
    assert rs.repeated and rs.real == (math.inf, math.inf)
    rs = roots_upper(BinaryForm((1, 0, 1, 0, 0)))
    assert rs.repeated and rs.real == (0.0, 0.0)


def _spy(monkeypatch, name, module=forms):
    """Replace module.<name> by a wrapper that records each return value."""
    seen = []
    real = getattr(module, name)

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(module, name, spy)
    return seen


def test_ill_pentagon_roots_certified_exactly(monkeypatch):
    # every r2=4 pentagon whose double-precision polish flags an ill root
    # (208 of 11 628 with numpy 2.4) is certified by pass 1 of the exact
    # route, which lands on its Gaussian-integer roots: squarefree and the
    # later passes never run
    exact = _spy(monkeypatch, "_roots_high_precision")
    split = _spy(monkeypatch, "squarefree")
    sweeps = _spy(monkeypatch, "_sweep")
    escalated = 0
    for roots in enumerate_ngons(lattice_points(4), 5):
        f = from_upper_roots([UhpPoint(x, y) for x, y in roots])
        rs = roots_upper(f)
        # minimize asks for the squarefree factors only of repeated roots
        assert not rs.repeated
        if len(exact) > escalated:
            escalated += 1
            want = sorted([complex(x, y) for x, y in roots]
                          + [complex(x, -y) for x, y in roots],
                          key=lambda z: (z.real, z.imag))
            got, repeated = exact[-1]
            assert sorted(got, key=lambda z: (z.real, z.imag)) == want
            assert repeated is False
            assert [(p.t, p.u) for p in rs.upper] == [
                (float(x), float(y)) for x, y in sorted(roots)]
    assert escalated > 0 and split == [] and sweeps == []


# roots pinned from the arbitrary-precision solver that the exact route
# replaced
_UNCERTIFIED = [
    # a clustered septic: 8 exact Newton steps leave its centers short of
    # the convergence bound, though their discs are already disjoint
    (transform(BinaryForm((1, -27, 285, -1399, 2594, 2502, -16020, 12064)),
               UnimodularMatrix(-2, -3, 5, 7)).coeffs,
     ((-1.4087403598971722, 0.005141388174807198),
      (-1.404642409033877, 0.0018820577164366374)),
     (-1.4285714285714286, -1.4047619047619047, -1.375), False),
]


@pytest.mark.parametrize("coeffs,upper,real,repeated", _UNCERTIFIED,
                         ids=["clustered-septic"])
def test_uncertified_roots_fall_back_to_high_precision(
        coeffs, upper, real, repeated, monkeypatch):
    # pass 1 fails; squarefree, asked once, finds no repeated root; the
    # Weierstrass passes then certify the roots the old solver gave
    exact = _spy(monkeypatch, "_roots_high_precision")
    split = _spy(monkeypatch, "squarefree")
    sweeps = _spy(monkeypatch, "_sweep")
    rs = roots_upper(BinaryForm(coeffs))
    assert len(exact) == 1 and len(sweeps) > 0
    assert [[m for _, m in parts] for parts in split] == [[1]]
    assert [(p.t, p.u) for p in rs.upper] == list(upper)
    assert rs.real == real and rs.repeated is repeated


def test_uncertified_roots_raise(monkeypatch):
    # no route returns roots it has not certified: with sweeps that never
    # move, the septic's grids run out; a start that is not finite is refused
    monkeypatch.setattr(forms, "_sweep", lambda coeffs, w, e: False)
    with pytest.raises(ConvergenceError, match="not certified"):
        roots_upper(BinaryForm(_UNCERTIFIED[0][0]))
    with pytest.raises(ConvergenceError, match="finite"):
        forms._roots_high_precision([1, 0, 1], [complex(math.nan, 1), -1j])


@pytest.mark.parametrize("coeffs,upper,real", [
    ((1, 0, 2, 0, 1), ((0, 1), (0, 1)), ()),  # (x^2+y^2)^2
    ((1, 8, 24, 32, 16), (), (-2.0,) * 4),  # (x+2y)^4
], ids=["double-pair", "quadruple-real"])
def test_repeated_roots_split_exactly(coeffs, upper, real, monkeypatch):
    # pass 1 cannot certify a multiple root; the squarefree split then finds
    # the roots of each factor, and no Weierstrass pass runs
    exact = _spy(monkeypatch, "_roots_high_precision")
    split = _spy(monkeypatch, "squarefree")
    sweeps = _spy(monkeypatch, "_sweep")
    rs = roots_upper(BinaryForm(coeffs))
    assert len(exact) == len(split) == 1 and sweeps == []
    assert [(p.t, p.u) for p in rs.upper] == list(upper)
    assert rs.real == real and rs.repeated is True


def _mignotte(d, a):
    """x^d - 2 (a x - y)^2 y^(d-2): squarefree, with two real roots close
    together near 1/a."""
    coeffs = [1] + [0] * d
    coeffs[d - 2:] = [-2 * a * a, 4 * a, -2]
    return BinaryForm(tuple(coeffs))


def test_split_factor_takes_the_exact_route(monkeypatch):
    # the square of a Mignotte form: pass 1 fails, the squarefree split finds
    # the factor with multiplicity 2, and that factor's doubles are ill in
    # turn, so its own _roots_high_precision call runs the sweeps
    f = _mignotte(8, 1000)
    once = roots_upper(f)
    depth, calls, sweeps = [0], [], []
    exact, sweep = forms._roots_high_precision, forms._sweep

    def exact_spy(coeffs, start):
        calls.append(tuple(coeffs))
        depth[0] += 1
        try:
            return exact(coeffs, start)
        finally:
            depth[0] -= 1

    def sweep_spy(coeffs, w, e):
        sweeps.append((tuple(coeffs), depth[0]))
        return sweep(coeffs, w, e)

    monkeypatch.setattr(forms, "_roots_high_precision", exact_spy)
    monkeypatch.setattr(forms, "_sweep", sweep_spy)
    squared = tuple(poly_mul(f.coeffs, f.coeffs))
    rs = roots_upper(BinaryForm(squared))
    assert calls == [squared, f.coeffs]
    assert sweeps and set(sweeps) == {(f.coeffs, 2)}
    assert rs.repeated and not once.repeated
    assert rs.real == tuple(sorted(once.real * 2))
    assert rs.upper == tuple(sorted(once.upper * 2,
                                    key=lambda p: (p.t, p.u)))


def _mignottes():
    return [_mignotte(d, a) for d in range(4, 12)
            for a in (3, 10, 30, 100, 1000)]


def test_real_and_repeated_match_sympy():
    # a root is real exactly when sympy's exact real-root count says so,
    # with multiplicity and roots at infinity, and the roots are repeated
    # exactly when sympy's squarefree decomposition has a multiplicity above
    # 1: on the mixed population, the Mignotte forms, whose close real roots
    # are distinct, and definite forms with roots near the real axis
    import sympy

    x = sympy.Symbol("x")
    wl = benchmark_workloads()
    rows = [f for group in wl.mixed_population(formred).values()
            for f in group]
    rows += _mignottes() + [BinaryForm(c) for c in TINY_ROOT_FORMS]
    repeated = 0
    for f in rows:
        at_infinity = next(i for i, c in enumerate(f.coeffs) if c)
        parts = sympy.Poly(list(f.coeffs[at_infinity:]), x).sqf_list()[1]
        real = at_infinity + sum(m * p.count_roots() for p, m in parts)
        want = at_infinity > 1 or any(m > 1 for _, m in parts)
        rs = roots_upper(f)
        assert len(rs.real) == real and rs.repeated is want, f.coeffs
        repeated += want
    assert len(rows) > 2000 and repeated > 30


def test_close_real_roots_skip_the_unstable_test(monkeypatch):
    # the 15 Mignotte forms whose close real roots a 1e-8 band once called
    # repeated: minimize no longer asks for the squarefree factors that the
    # test for an unstable root reads
    split = _spy(monkeypatch, "squarefree", formred.reduce)
    close = [f for f in _mignottes()
             if np.diff(sorted(roots_upper(f).real)).min() < 1e-8]
    assert len(close) == 15
    for f in close:
        assert not roots_upper(f).repeated
        formred.minimize(f)
    assert split == []


def test_pair_polish_matches_per_root_polish():
    # the direct companion solve, polishing each upper root once and taking
    # the conjugate for its pair, gives np.roots polished root by root with
    # a closing evaluation each: the same roots bit for bit, in order, and
    # the same ill flag
    wl = benchmark_workloads()
    rows = [f.coeffs for group in wl.mixed_population(formred).values()
            for f in group]
    rows += [_mignotte(d, a).coeffs for d in range(4, 12)
             for a in (3, 10, 30, 100, 1000)]
    ngons = enumerate_ngons(lattice_points(4), 5)
    rows += [from_upper_roots([UhpPoint(x, y) for x, y in roots]).coeffs
             for i, roots in enumerate(ngons) if i % 23 == 0][:500]
    # degree 1, zero roots at the end, and totally real forms
    rows += [(3, -7), (5, 0), (2, 0, 0), (1, -3, 2, 0, 0), (4, 0, -1, 0),
             (1, 0, 0, 0, 1, 0), (6, -5, 1), (1, -6, 11, -6), (1, 0, -2)]
    paired = ill = real = zero_end = 0
    for coeffs in rows:
        coeffs = forms._strip(list(coeffs))
        got, got_ill = forms._double_roots(coeffs)
        want, want_ill = double_roots_reference(coeffs)
        assert [(z.real.hex(), z.imag.hex()) for z in got] == \
            [(z.real.hex(), z.imag.hex()) for z in want], coeffs
        assert got_ill is want_ill, coeffs
        paired += any(z.imag < 0 for z in got)
        ill += got_ill
        real += all(z.imag == 0 for z in got)
        zero_end += coeffs[-1] == 0
    assert len(rows) > 1200 and paired > 1000 and ill > 0
    assert real > 100 and zero_end > 100


def test_polish_root_matches_reference(rng):
    # from starts near clustered and repeated roots, where three Newton
    # steps may leave z moving, the polish whose steps evaluate only p and
    # p' gives the root and ill flag of the reference, which evaluates the
    # bound at every step and once more at the end, bit for bit; so does the
    # polish against the coefficients rounded to doubles, which
    # _double_roots passes
    rows = [_mignotte(d, a).coeffs for d in range(4, 12)
            for a in (3, 10, 30, 100, 1000)]
    rows += [(1, -7, 18, -20, 8), (1, -4, 6, -4, 1), (1, -10, 40, -80, 80, -32)]
    ill = 0
    for coeffs in rows:
        for z0 in np.roots([float(c) for c in coeffs]):
            for _ in range(20):
                z = complex(z0) + complex(
                    *rng.normal(0, 10.0 ** rng.uniform(-12, -1), 2))
                want = polish_root_reference(coeffs, z)
                for given in (coeffs, [float(c) for c in coeffs]):
                    got = forms._polish_root(given, z)
                    assert (got[0].real.hex(), got[0].imag.hex(), got[1]) == \
                        (want[0].real.hex(), want[0].imag.hex(), want[1]), \
                        (given, z)
                ill += want[1]
    assert 100 < ill < 5000


def test_double_roots_refuse_coefficients_past_the_doubles():
    big = 10 ** 400
    for coeffs in ((1, 0, big), (big, 1), (1, -big, 3, 1)):
        with pytest.raises(formred.DomainError, match="2\\^1024"):
            roots_upper(BinaryForm(coeffs))
    with pytest.raises(formred.DomainError):
        roots_upper(BinaryForm((1, 0, 2 ** 1024 - 2 ** 970)))
    # a coefficient that rounds to a double is accepted
    assert len(roots_upper(BinaryForm((1, 0, 2 ** 1023))).upper) == 1


def test_lapack_nonconvergence_raises_convergence_error(monkeypatch, capsys):
    # a LAPACK non-convergence gives NaN eigenvalues, not LinAlgError: the
    # polish keeps the NaN starts and flags them ill, the exact route
    # refuses them, and the CLI exits 2 as for any ConvergenceError
    def no_convergence(A, signature):
        return np.full(len(A), complex(math.nan, math.nan))

    monkeypatch.setattr(forms, "_eigvals", no_convergence)
    with pytest.raises(ConvergenceError, match="finite"):
        roots_upper(BinaryForm((1, 0, 1)))
    assert formred.cli.main(["minimize", "--coeffs", "1,0,1"]) == 2
    assert "finite" in capsys.readouterr().err


def test_overflowing_polish_hands_the_start_to_the_exact_route():
    # polishing -1e200, a root of x^2 + 10^200 x y + 10^300 y^2, squares it
    # past the doubles: the polish returns the LAPACK start with ill set,
    # and the exact route certifies both real roots from there
    coeffs = (1, 10 ** 200, 10 ** 300)
    z = complex(np.linalg.eigvals(np.array([[-1e200, -1e300], [1.0, 0.0]]))[0])
    assert forms._polish_root(coeffs, z) == (z, True)
    rs = roots_upper(BinaryForm(coeffs))
    assert rs.upper == () and rs.real == (-1e200, -1e100)
    # the largest coefficient that rounds to a double: roots +-2^512 i
    rs = roots_upper(BinaryForm((1, 0, 2 ** 1024 - 2 ** 970 - 1)))
    assert rs.real == () and [(p.t, p.u) for p in rs.upper] == [(0.0, 2.0 ** 512)]


@pytest.mark.xfail(strict=True, raises=ConvergenceError,
                   reason="LAPACK starts both roots on the real axis, and "
                          "neither Newton pass 1 nor the Weierstrass sweeps "
                          "leave it (CHANGES.md, FOUND)")
def test_definite_quadratic_far_from_zero_gets_roots():
    # x^2 - 2X xy + (X^2 + 64) y^2 with X = -884428080: the roots X +- 8i
    rs = roots_upper(BinaryForm((1, 1768856160, 782213028692486464)))
    assert rs.real == ()
    assert [(p.t, p.u) for p in rs.upper] == [(-884428080.0, 8.0)]


def _moebius_roots(M):
    """The upper roots of transform(triangle, M), (d z - b) / (a - c z) over
    the triangle's roots z = x + iy (or their conjugates), correctly rounded."""
    out = []
    for x, y in TRIANGLE_ROOTS:
        nr, ni, dr, di = M.d * x - M.b, M.d * y, M.a - M.c * x, -M.c * y
        norm = dr * dr + di * di
        out.append((float(Fraction(nr * dr + ni * di, norm)),
                    abs(float(Fraction(ni * dr - nr * di, norm)))))
    return sorted(out)


_ROOTS_WITHOUT_MPMATH = """
import json, sys
sys.modules["mpmath"] = None  # any import of mpmath now fails
import formred as fr
from formred import forms
import workloads

route = set()
for name in ("_roots_high_precision", "squarefree", "_sweep"):
    def spy(*args, name=name, real=getattr(forms, name)):
        route.add(name)
        return real(*args)
    setattr(forms, name, spy)
sets = json.load(sys.stdin)
sets["mixed"] = [f.coeffs for group in workloads.mixed_population(fr).values()
                 for f in group]
out = {}
for name, rows in sets.items():
    out[name] = []
    for coeffs in rows:
        route.clear()
        rs = fr.roots_upper(fr.BinaryForm(tuple(coeffs)))
        if route:
            out[name].append([coeffs, sorted(route), [[p.t, p.u] for p in rs.upper],
                              list(rs.real)])
print(json.dumps(out))
"""


def test_certified_roots_without_mpmath(triangle):
    # in a fresh interpreter where mpmath cannot be imported: the mixed
    # population, the clustered septic, 40 Mignotte forms and 50 SL2 images
    # of the triangle.  Every root the exact route certifies is its true
    # root correctly rounded: exact Moebius images for the triangle, sympy's
    # real root isolation and 30-digit roots otherwise.
    from oracles import random_sl2, rounded_roots

    rng = np.random.default_rng(20240612)  # as test_theta_invariance_small
    images = {}
    for _ in range(50):
        M = UnimodularMatrix(*random_sl2(rng))
        images[transform(triangle, M).coeffs] = M
    sets = {"septic": [_UNCERTIFIED[0][0]],
            "mignotte": [_mignotte(d, a).coeffs for d in range(4, 12)
                         for a in (3, 10, 30, 100, 1000)],
            "triangle": list(images)}
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")]))
    done = subprocess.run([sys.executable, "-c", _ROOTS_WITHOUT_MPMATH],
                          input=json.dumps(sets), env=env, check=True,
                          capture_output=True, text=True)
    out = json.loads(done.stdout)
    for name in ("septic", "mignotte", "triangle"):
        assert any("_sweep" in route for _, route, _, _ in out[name]), name
    assert any("squarefree" in route for _, route, _, _ in out["mixed"])
    for name, rows in out.items():
        for coeffs, route, upper, real in rows:
            got = (real, [tuple(z) for z in upper])
            if name == "triangle":
                want = ([], _moebius_roots(images[tuple(coeffs)]))
            else:
                want = rounded_roots(coeffs)
            if all(m == 1 for _, m in forms.squarefree(coeffs)):
                assert got == want, (name, coeffs)
            else:  # a factor's double roots stand when they certify
                assert len(got[0]) == len(want[0]) and len(got[1]) == len(want[1])
                assert np.allclose(got[0], want[0], rtol=1e-13)
                assert np.allclose(got[1], want[1], rtol=1e-13)


def _sympy_sqf(coeffs):
    """The squarefree decomposition of the binary form by sympy.sqf_list,
    as {multiplicity: primitive factor coefficients}."""
    import sympy

    x, y = sympy.symbols("x y")
    n = len(coeffs) - 1
    poly = sympy.Poly(sum(c * x ** (n - i) * y ** i
                          for i, c in enumerate(coeffs)), x, y)
    out = {}
    for factor, m in poly.sqf_list()[1]:
        d = factor.total_degree()
        row = [int(factor.coeff_monomial(x ** (d - i) * y ** i))
               for i in range(d + 1)]
        out[m] = primitive(BinaryForm(tuple(row))).coeffs
    return out


def test_squarefree_matches_sympy(rng):
    def linear():
        return [int(rng.integers(1, 30)), int(rng.integers(-30, 31))]

    def quadratic():
        a, b = int(rng.integers(1, 20)), int(rng.integers(-20, 21))
        return [a, b, (b * b) // (4 * a) + int(rng.integers(1, 20))]

    cases = []
    for _ in range(150):  # squared or cubed linear and quadratic factors
        parts = [(linear() if rng.integers(2) else quadratic(),
                  int(rng.integers(1, 4))) for _ in range(rng.integers(1, 4))]
        coeffs = [int(rng.choice([-3, -1, 1, 2, 6]))]
        for factor, m in parts:
            for _ in range(m):
                coeffs = poly_mul(coeffs, factor)
        cases.append(coeffs)
    for _ in range(60):  # zero ends: powers of y and x
        base = random_form(rng, span=20).coeffs
        cases.append([0] * int(rng.integers(0, 4)) + list(base)
                     + [0] * int(rng.integers(0, 4)))
    for _ in range(40):  # 20-digit coefficients, some with a squared factor
        c = [int(rng.integers(1, 10 ** 10)) * int(rng.integers(1, 10 ** 10))
             * (1 if rng.integers(2) else -1)
             for _ in range(int(rng.integers(2, 5)))]
        cases.append(poly_mul(c, c) if rng.integers(2) else c)
    for _ in range(60):  # squarefree forms
        cases.append(list(random_form(rng).coeffs))
    cases += [[0, 0, 0, 5], [7, 0, 0], [4, 16, 24, 16, 4, 0, 0]]
    multiple = 0
    for coeffs in cases:
        got = forms.squarefree(coeffs)
        assert dict((m, f) for f, m in got) == _sympy_sqf(coeffs), coeffs
        assert [m for _, m in got] == sorted({m for _, m in got})
        multiple += any(m > 1 for _, m in got)
    assert len(cases) >= 300 and multiple >= 150


@st.composite
def _sl2_words(draw):
    """A product of T^k S factors (k up to 10^3), kept while its entries are
    at most 10^6, and possibly a last T^k: a translation when it is alone."""
    M = UnimodularMatrix.identity()
    for k in draw(st.lists(st.integers(-1000, 1000), max_size=6)):
        N = M @ UnimodularMatrix.translation(k) @ UnimodularMatrix.inversion()
        if max(map(abs, (N.a, N.b, N.c, N.d))) > 10 ** 6:
            break
        M = N
    N = M @ UnimodularMatrix.translation(draw(st.integers(-1000, 1000)))
    return N if max(map(abs, (N.a, N.b, N.c, N.d))) <= 10 ** 6 else M


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(-10 ** 20, 10 ** 20), min_size=2, max_size=14)
       .filter(any), _sl2_words(), _sl2_words())
def test_transform_matches_reference(coeffs, M, N):
    # Horner gives the coefficients of the convolution reference, and the
    # action composes
    f = BinaryForm(tuple(coeffs))
    got = transform(f, M)
    assert got.coeffs == transform_reference(f.coeffs, M.a, M.b, M.c, M.d)
    assert transform(got, N) == transform(f, M @ N)


def test_transform_matches_reference_in_the_pipeline(monkeypatch):
    # every matrix that minimize and reduce_julia transform by, on every
    # 40th r2=4 pentagon and the whole mixed population
    seen = []

    def spy(f, M):
        seen.append((f, M))
        return transform(f, M)

    monkeypatch.setattr(formred.reduce, "transform", spy)
    ngons = enumerate_ngons(lattice_points(4), 5)
    fs = [from_upper_roots([UhpPoint(x, y) for x, y in roots])
          for i, roots in enumerate(ngons) if i % 40 == 0]
    wl = benchmark_workloads()
    fs += [f for group in wl.mixed_population(formred).values() for f in group]
    for f in fs:
        for fn in (formred.reduce.minimize, formred.reduce.reduce_julia):
            try:
                fn(f)
            except formred.DomainError:
                pass
    for f, M in seen:
        assert transform(f, M).coeffs == \
            transform_reference(f.coeffs, M.a, M.b, M.c, M.d), (f, M)
    assert len(seen) > 1500 and sum(M.c != 0 for _, M in seen) > 100
    assert sum(M.c == 0 and M.b != 0 for _, M in seen) > 500


def test_transform_round_trip(rng):
    from oracles import random_sl2
    for _ in range(300):
        f = random_form(rng)
        M = UnimodularMatrix(*random_sl2(rng))
        assert transform(transform(f, M), M.inverse()) == f
        assert transform(f, M).degree == f.degree


def test_content_invariant_under_shift(rng):
    for _ in range(200):
        f = random_form(rng)
        m = int(rng.integers(-30, 31))
        assert content(shift(f, m)) == content(f)


def test_height_scale_invariance(rng):
    for _ in range(200):
        f = random_form(rng)
        k = int(rng.integers(1, 50)) * (1 if rng.integers(2) else -1)
        scaled = BinaryForm(tuple(k * c for c in f.coeffs))
        assert height(primitive(scaled)) == height(primitive(f))


def test_roots_round_trip(rng):
    for _ in range(120):
        n = int(rng.integers(1, 6))
        pts = random_upper_points(rng, n, coord_max=100)
        f = from_upper_roots([UhpPoint(x, y) for x, y in pts])
        rs = roots_upper(f)
        assert rs.real == () and len(rs.upper) == n
        got = sorted((p.t, p.u) for p in rs.upper)
        for (gx, gy), (x, y) in zip(got, pts):
            assert abs(gx - x) < 1e-8 and abs(gy - y) < 1e-8


def _columns(rows, dtype):
    """The entries of equal-length rows as numpy columns, one per position."""
    return [np.array(col, dtype=dtype) for col in zip(*rows)]


def test_quadratic_product_kernel_on_blocks(rng):
    # one-root rows, small rows, and (object only) coefficients past 2^63
    for k, span, dtypes in ((1, 50, (np.int64, object)),
                            (2, 50, (np.int64, object)),
                            (5, 50, (np.int64, object)),
                            (5, 10 ** 6, (object,))):
        A = [[int(v) for v in rng.integers(-span, span + 1, k)] for _ in range(40)]
        B = [[int(v) for v in rng.integers(1, span * span + 1, k)] for _ in range(40)]
        want = [fold(poly_mul, ([1, a, b] for a, b in zip(ra, rb)), [1])
                for ra, rb in zip(A, B)]
        for ra, rb, w in zip(A, B, want):
            assert _quadratic_product(zip(ra, rb)) == w
        for dtype in dtypes:
            got = _quadratic_product(zip(_columns(A, dtype), _columns(B, dtype)))
            assert got[0] == 1 and len(got) == 2 * k + 1
            for j, col in enumerate(got[1:], start=1):
                assert col.dtype == dtype
                assert list(col) == [w[j] for w in want]
    assert max(abs(c) for w in want for c in w) > 2 ** 63


def test_taylor_shift_kernel_on_blocks(rng):
    shifts = [-12, -3, -1, 0, 0, 1, 2, 7, 30]
    for n, span, dtypes in ((1, 9, (np.int64, object)),
                            (4, 9, (np.int64, object)),
                            (8, 9, (np.int64, object)),
                            (8, 2 ** 62, (object,))):
        rows = [[int(v) for v in rng.integers(-span, span, n + 1)]
                for _ in range(len(shifts) * 4)]
        ms = shifts * 4
        want = [binomial_shift(row, m) for row, m in zip(rows, ms)]
        for row, m, w in zip(rows, ms, want):
            assert _taylor_shift(list(row), m) == w
            if any(row):
                assert list(shift(BinaryForm(tuple(row)), m).coeffs) == w
        for dtype in dtypes:
            cols = _columns(rows, dtype)
            before = [c.copy() for c in cols]
            got = _taylor_shift(list(cols), np.array(ms, dtype=dtype))
            for j, col in enumerate(got):
                assert col.dtype == dtype
                assert list(col) == [w[j] for w in want]
            # the kernel rebinds the list's entries; the columns stay as given
            assert all((c == b).all() for c, b in zip(cols, before))
            # one shift for every row
            got = _taylor_shift(list(cols), -3)
            for j, col in enumerate(got):
                assert list(col) == [binomial_shift(row, -3)[j] for row in rows]
