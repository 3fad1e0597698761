import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import formred.julia
import formred.reduce
from formred import (BinaryForm, ConvergenceError, DomainError, UhpPoint,
                     UnimodularMatrix, enumerate_ngons, from_upper_roots, height,
                     lattice_points, minimize, primitive,
                     reduce_com, reduce_hyperbolic, reduce_julia,
                     roots_upper, scale_search, shift, shift_descent,
                     shift_direction, transform)
from conftest import TINY_ROOT_FORMS, TRIANGLE_COEFFS, random_upper_points
from oracles import (feasible_cut, minimize_cascade, poly_mul,
                     scale_exhaustive, scale_lemma, scaled_primitive,
                     shift_descent_reference, wgcd)

# one form per stage-1 route of minimize, plus two that end otherwise
ROUTE_FORMS = {
    "hyperbolic": TRIANGLE_COEFFS,
    "com": (1, 0, 1, 1),
    "julia": (1, 0, -2, 0),
    "both-ends-zero": (0, 3, 2, 1, 2, -1, -1),
    "domain-error": (1, 0, -2),
}


def test_reduce_hyperbolic_examples(triangle, pentagon):
    r = reduce_hyperbolic(triangle)
    assert r.matrix == UnimodularMatrix.translation(17)
    assert r.output_height == 1_807_810
    assert r.input_height == 47_831_060
    assert float(r.zero_used.t) == pytest.approx(52 / 3, abs=1e-9)

    r = reduce_hyperbolic(pentagon)
    assert r.matrix == UnimodularMatrix.translation(4)
    assert r.output_height == 3_060_000

    centered = from_upper_roots([UhpPoint(0, 2)])
    r = reduce_hyperbolic(centered)
    assert r.output == centered and r.matrix == UnimodularMatrix.identity()

    with pytest.raises(DomainError):
        reduce_hyperbolic(BinaryForm((1, 0, -2)))


def test_reduce_com_examples(triangle, pentagon):
    r = reduce_com(triangle)
    assert r.matrix == UnimodularMatrix.translation(7)
    assert r.output_height == 22_220_090
    assert float(r.zero_used.t) == pytest.approx(22 / 3, abs=1e-9)
    assert float(r.zero_used.u) == pytest.approx(13, abs=1e-9)

    r = reduce_com(pentagon)
    assert r.matrix == UnimodularMatrix.translation(3)
    assert r.output_height == 3_862_800

    centered = from_upper_roots([UhpPoint(0, 2)])
    r = reduce_com(centered)
    assert r.output == centered

    with pytest.raises(DomainError):
        reduce_com(BinaryForm((1, 0, -2)))


def test_reduce_julia_runs(triangle):
    r = reduce_julia(triangle)
    # the true theta_0 zero sits at Re ~ 10.57, so the shift is 11
    assert r.matrix == UnimodularMatrix.translation(11)
    assert r.output_height < r.input_height
    assert r.method == "julia"


def test_shift_direction_examples(triangle):
    assert shift_direction(shift(triangle, 17)) == {"+"}
    assert shift_direction(shift(triangle, 19)) == set()
    assert shift_direction(BinaryForm((1, 0, 1))) == set()
    # x^2 + 6xy + 10y^2 = (x + 3y)^2 + y^2: only x -> x - y lowers it
    assert shift_direction(shift(BinaryForm((1, 0, 1)), 3)) == {"-"}


def test_shift_descent_examples(triangle, pentagon):
    r = shift_descent(shift(triangle, 17))
    assert r.matrix == UnimodularMatrix.translation(2)
    assert r.output_height == 447_809

    r = shift_descent(shift(pentagon, 4))
    assert r.matrix == UnimodularMatrix.translation(1)
    assert r.output_height == 2_494_440

    f = BinaryForm((1, 0, 1))
    r = shift_descent(f)
    assert r.output == f and r.output_height == 1


def test_shift_descent_local_window(rng, triangle):
    for patience in (1, 2, 3, 5):
        r = shift_descent(shift(triangle, 17), patience=patience)
        base = r.matrix.b
        f0 = primitive(shift(triangle, 17))
        for k in range(1, patience + 1):
            assert r.output_height <= height(shift(f0, base + k))
            assert r.output_height <= height(shift(f0, base - k))


def test_wgcd_and_scale_lemma():
    # the lemma lives on as a test oracle: scale_search subsumes it
    # ascending (8, 4, 2, 1): wgcd of (4, 2, 1) with weights (1, 2, 3) is 1
    f = (1, 2, 4, 8)
    assert wgcd(f) == 1
    assert scale_lemma(f) == (1, f)

    # ascending (5, 2, 4, 8): q = 2, but p = gcd(5, 2) = 1
    f = (8, 4, 2, 5)
    assert wgcd(f) == 2
    assert scale_lemma(f) == (1, f)

    # q = 1: the lemma stalls, while the scan finds lambda = 2
    assert scale_lemma((1, 0, 4)) == (1, (1, 0, 4))
    assert scale_search(BinaryForm((1, 0, 4))).output_height == 1


def test_scale_lemma_vacuous_on_primitive(rng):
    # p = gcd(a_0, q) divides every coefficient, hence the content: for a
    # primitive form the lemma can never rescale, which is why scale_search
    # is the authoritative operation
    from conftest import random_form
    for _ in range(200):
        f = primitive(random_form(rng))
        p, coeffs = scale_lemma(f.coeffs)
        assert p == 1 and coeffs == f.coeffs
        assert scale_search(f, bound=6).output_height <= max(map(abs, coeffs))


def test_scale_search_examples():
    r = scale_search(BinaryForm((1, 0, 4)), bound=2)
    assert r.output.coeffs == (1, 0, 1)
    assert r.scale == Fraction(2) and r.output_height == 1

    r = scale_search(BinaryForm((4, 0, 0, 1)), bound=2)
    assert r.output.coeffs == (1, 0, 0, 2)
    assert r.scale == Fraction(1, 2) and r.output_height == 2

    f = BinaryForm((1, 1, 1))
    r = scale_search(f)
    assert r.output == f and r.scale == 1


def test_scale_search_matches_exhaustive(rng, pentagon):
    # the scan only visits content-feasible (u, v); the oracle visits every
    # coprime pair, so form, lambda and height must all agree
    forms = []
    for _ in range(40):
        n = int(rng.integers(2, 5))
        coeffs = [int(v) for v in rng.integers(-40, 41, n + 1)]
        if coeffs[0] == 0 or coeffs[-1] == 0:
            continue
        forms.append(coeffs)
    for _ in range(30):  # one zero end: the pairs come from the stripped form
        n = int(rng.integers(2, 6))
        coeffs = [int(v) for v in rng.integers(-60, 61, n + 1)]
        coeffs[0 if rng.integers(2) else -1] = 0
        if coeffs[0] or coeffs[-1]:
            forms.append(coeffs)
    for _ in range(60):  # smooth ends: small forms blown up by u^(n-i) v^i
        n = int(rng.integers(2, 6))
        base = [int(v) for v in rng.integers(-9, 10, n + 1)]
        if base[0] == 0 or base[-1] == 0:
            continue
        u, v = (int(w) for w in rng.choice([1, 2, 3, 4, 6, 8, 9], 2))
        forms.append([c * v ** (n - i) * u ** i for i, c in enumerate(base)])
    for _ in range(20):  # 20-digit coefficients
        n = int(rng.integers(2, 5))
        coeffs = [int(rng.integers(1, 10**10)) * int(rng.integers(1, 10**10))
                  * (1 if rng.integers(2) else -1) for _ in range(n + 1)]
        forms.append(coeffs)
    # zero ends, blown up as above: the scan's bound then takes the first
    # or last nonzero coefficient in place of a zero end
    for k in range(60):
        n = int(rng.integers(3, 7))
        base = [int(v) for v in rng.integers(-12, 13, n + 1)]
        base[0], base[-1] = (0, base[-1]) if k % 3 == 0 else \
            (base[0], 0) if k % 3 == 1 else (0, 0)
        if any(base):
            u, v = (int(w) for w in rng.choice([1, 2, 3, 4, 6, 9], 2))
            forms.append([c * v ** (n - i) * u ** i
                          for i, c in enumerate(base)])
    forms += [[0, 1, 0, 1, 0], [0, 4, 0, 1, 0], [0, 1, 0, 0, 9, 0]]
    cases = [(primitive(BinaryForm(tuple(c))), 8) for c in forms]
    cases += [(shift(pentagon, 5), 64), (BinaryForm((1, 0, 4)), 64)]
    fired = 0
    for f, bound in cases:
        r = scale_search(f, bound=bound)
        h, lam = scale_exhaustive(f.coeffs, bound)
        assert (r.output.coeffs, r.scale, r.output_height) == \
            (scaled_primitive(f.coeffs, lam), lam, h), f
        fired += lam != 1
    assert fired >= 40


def test_scale_search_cap_matches_exhaustive(rng):
    # at bound 64, where the exact cap u^n < |c_n| h0, v^n < |c_0| h0 drops
    # content-feasible scalings: pentagon stage-2 outputs, degree 6-10 forms
    # with smooth ends, and zero-end forms, capped through their stripped
    # forms
    forms = []
    for i, roots in enumerate(enumerate_ngons(lattice_points(4), 5)):
        if i % 997 == 0:
            f = from_upper_roots([UhpPoint(x, y) for x, y in roots])
            forms.append(shift_descent(reduce_hyperbolic(f).output).output)
    while len(forms) < 24:
        n = int(rng.integers(6, 11))
        base = [int(v) for v in rng.integers(-9, 10, n + 1)]
        if base[0] == 0 or base[-1] == 0:
            continue
        u, v = (int(w) for w in rng.choice([1, 2, 3, 4, 6, 8, 9], 2))
        forms.append(primitive(BinaryForm(tuple(
            c * v ** (n - i) * u ** i for i, c in enumerate(base)))))
    for k in range(6):
        n = int(rng.integers(6, 11))
        coeffs = [int(v) for v in rng.integers(-30, 31, n + 1)]
        coeffs[-(k % 2)] = 0
        coeffs[k % 2 - 1] = coeffs[k % 2 - 1] or 7
        forms.append(primitive(BinaryForm(tuple(coeffs))))
    # the winning u (v) has u^n = 81, 3/4 of its cap |c_n| h0 = 108 (|c_0| h0)
    forms += [BinaryForm((8, 0, -12, 0, -9)), BinaryForm((9, 12, 0, 1, 1))]
    cut = 0
    for f in forms:
        r = scale_search(f, bound=64)
        h, lam = scale_exhaustive(f.coeffs, 64)
        assert (r.output.coeffs, r.scale, r.output_height) == \
            (scaled_primitive(f.coeffs, lam), lam, h), f
        cut += feasible_cut(f.coeffs, 64)
    assert cut >= 10


def test_zero_end_scale_pairs_are_capped(monkeypatch):
    # the stage-2 form (0, 28, 18, -27, 30) takes its pairs from the stripped
    # 28 x^3 + 18 x^2 y - 27 x y^2 + 30 y^3: u^3 < 30 * 30, v^3 < 28 * 30
    # leave 27 of the 843 pairs that an uncapped zero end lists
    f = BinaryForm((0, 28, 18, -27, 30))
    pairs = formred.reduce._scale_pairs
    listed = []
    monkeypatch.setattr(formred.reduce, "_scale_pairs",
                        lambda c, bound: listed.append(pairs(c, bound))
                        or listed[-1])
    r = scale_search(f, bound=64)
    assert listed == [pairs((28, 18, -27, 30), 64)]
    assert len(listed[0]) <= 27
    assert (r.output_height, r.scale) == scale_exhaustive(f.coeffs, 64)


@st.composite
def _forms_with_zeros(draw):
    """Primitive forms with zero coefficients at one end, at both ends or
    inside, most of them blown up by c_i v^(n-i) u^i so that a scaling
    wins."""
    kind = draw(st.sampled_from(["lead", "trail", "both", "inside"]))
    n = draw(st.integers(3, 8))
    c = draw(st.lists(st.integers(-30, 30).filter(bool), min_size=n + 1,
                      max_size=n + 1))
    lead = draw(st.integers(1, n - 1)) if kind in ("lead", "both") else 0
    trail = draw(st.integers(1, n - lead)) if kind in ("trail", "both") else 0
    c[:lead] = [0] * lead
    c[n + 1 - trail:] = [0] * trail
    if kind == "inside":
        c[draw(st.integers(1, n - 1))] = 0
    u, v = draw(st.sampled_from([(1, 1), (2, 1), (1, 3), (4, 3), (2, 9)]))
    return primitive(BinaryForm(tuple(ci * v ** (n - i) * u ** i
                                      for i, ci in enumerate(c))))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_forms_with_zeros())
def test_scale_search_with_zeros_matches_exhaustive(f):
    r = scale_search(f, bound=64)
    h, lam = scale_exhaustive(f.coeffs, 64)
    assert (r.output.coeffs, r.scale, r.output_height) == \
        (scaled_primitive(f.coeffs, lam), lam, h)


def test_scale_search_bound_stability(triangle, pentagon):
    g = shift(pentagon, 5)
    h64 = scale_search(g, bound=64).output_height
    assert scale_search(g, bound=8).output_height == h64
    t = shift(triangle, 19)
    assert scale_search(t, bound=8).output_height == \
        scale_search(t, bound=64).output_height


def test_minimize_triangle(triangle):
    r = minimize(triangle)
    assert r.output_height == 447_809
    assert r.input_height == 47_831_060
    assert r.method == "full"
    assert r.scale == 1
    assert primitive(transform(triangle, r.matrix)) == r.output


def test_minimize_pentagon_beats_shift_only_minimum(pentagon):
    # the scaling stage takes the shift-5 form (height 2,494,440) down to
    # 497,102 via lambda = 2; see the acceptance module for the full story
    r = minimize(pentagon)
    assert r.output_height == 497_102
    assert r.scale == Fraction(2)
    assert r.output_height <= reduce_hyperbolic(pentagon).output_height
    assert r.output_height <= reduce_com(pentagon).output_height


def test_minimize_trivial_and_real_roots():
    f = BinaryForm((1, 0, 1))
    r = minimize(f)
    assert r.output == f

    # all-real cubic x(x^2 - 2y^2): roots 0 and +-sqrt2, so stage 1 is Julia;
    # one real root and one conjugate pair: stage 1 is the center of mass.
    # The shifted copies make the stage-1 matrix non-trivial.
    g = BinaryForm((1, 0, -2, 0))
    mixed = BinaryForm((1, 0, 1, 1))
    for k in (0, 7, -30):
        for form, stage1 in ((shift(g, k), reduce_julia),
                             (shift(mixed, k), reduce_com)):
            rep, ref = minimize(form), stage1(form)
            assert (rep.matrix, rep.zero_used) == (ref.matrix, ref.zero_used)
            assert rep.output_height <= height(form)


@pytest.mark.parametrize("route", sorted(ROUTE_FORMS))
def test_minimize_finds_roots_once(route, monkeypatch):
    calls = []

    def counted(fn):
        def wrapped(f):
            calls.append(f)
            return fn(f)
        return wrapped

    for module in (formred.reduce, formred.julia):
        monkeypatch.setattr(module, "roots_upper", counted(module.roots_upper))
    f = BinaryForm(ROUTE_FORMS[route])
    if route == "domain-error":
        with pytest.raises(DomainError):
            minimize(f)
    else:
        minimize(f)
    assert calls == [f]


@pytest.mark.parametrize("route", sorted(ROUTE_FORMS))
def test_unknown_tie_refused_before_root_finding(route, monkeypatch):
    def unreachable(f):
        raise AssertionError("roots computed")

    monkeypatch.setattr(formred.reduce, "roots_upper", unreachable)
    f = BinaryForm(ROUTE_FORMS[route])
    for reducer in (minimize, reduce_com):
        with pytest.raises(ValueError, match="unknown rounding mode 'bogus'"):
            reducer(f, tie="bogus")


@pytest.mark.parametrize("route", sorted(ROUTE_FORMS))
def test_bad_patience_or_bound_refused_before_root_finding(route, monkeypatch):
    def unreachable(f):
        raise AssertionError("roots computed")

    monkeypatch.setattr(formred.reduce, "roots_upper", unreachable)
    f = BinaryForm(ROUTE_FORMS[route])
    for kwargs, name in (({"patience": 0}, "patience"), ({"bound": 0}, "bound"),
                         ({"patience": -3, "bound": 5}, "patience")):
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            minimize(f, **kwargs)


@pytest.mark.parametrize("coeffs", sorted(ROUTE_FORMS.values()) + [
    (12345678901234567890, -98765432109876543210, 11111111111111111111,
     31415926535897932384),
    (1, -8, 15, 24),  # com at Re 4.5: the two ties reach heights 16 and 10
])
def test_minimize_matches_stage1_cascade(coeffs):
    def outcome(pipeline, f, tie):
        try:
            r = pipeline(f, tie=tie)
        except Exception as exc:
            return type(exc), str(exc)
        return r.to_json_dict(), r.scale, r.matrix

    f = BinaryForm(coeffs)
    # the cascade mirrors minimize only on stable forms
    assert formred.reduce._unstable_root(f, roots_upper(f)) is None
    for tie in ("away", "zero"):
        assert outcome(minimize, f, tie) == outcome(minimize_cascade, f, tie)


def test_shift_through_both_ends_zero_form():
    # shift descent on this form passes a shift divisible by xy, which is a
    # legitimate SL2(Z) image; both stages must reduce it with a certificate
    f = BinaryForm((0, 3, 2, 1, 2, -1, -1))
    for r in (shift_descent(f), minimize(f)):
        assert scaled_primitive(transform(f, r.matrix).coeffs, r.scale) == \
            r.output.coeffs
        assert r.output_height == height(r.output) <= r.input_height == height(f)


def test_pipeline_monotonicity_random(rng):
    for _ in range(60):
        pts = random_upper_points(rng, int(rng.integers(1, 4)), coord_max=12)
        f = from_upper_roots([UhpPoint(x, y) for x, y in pts])
        r1 = reduce_hyperbolic(f)
        r2 = shift_descent(r1.output)
        r3 = scale_search(r2.output, bound=8)
        assert r1.output_height <= r1.input_height
        assert r2.output_height <= r1.output_height
        assert r3.output_height <= r2.output_height
        rm = minimize(f, bound=8)
        assert rm.output_height <= min(r3.output_height,
                                       reduce_com(f).output_height)


_KINDS = ("small", "zero-end", "20-digit")


@st.composite
def _forms(draw, kinds=_KINDS):
    """A random form of degree 2 to 7: small coefficients, small with one
    end coefficient zero, coefficients of up to 20 digits or, as the kind
    "past-2^500", 2^j f(x, 2^k y) for a form f with coefficients of at most
    7 and j + n k <= 1020: a leading coefficient past 2^512, or roots
    past 2^500, overflow the doubles in the Julia solve."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(2, 7))
    span = {"20-digit": 10**20, "past-2^500": 7}.get(kind, 40)
    coeffs = draw(st.lists(st.integers(-span, span), min_size=n + 1,
                           max_size=n + 1))
    if kind == "zero-end":
        coeffs[draw(st.sampled_from([0, -1]))] = 0
    if kind == "past-2^500":
        k = draw(st.integers(0, 1020 // n))
        j = draw(st.integers(max(0, 500 - n * k), 1020 - n * k))
        coeffs = [c << (j + k * i) for i, c in enumerate(coeffs)]
    assume(any(coeffs))
    return BinaryForm(tuple(coeffs))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_forms())
def test_minimize_report_or_domain_error(f):
    # every form gets a report that its certificate checks, or a DomainError
    try:
        r = minimize(f)
    except DomainError:
        return
    assert scaled_primitive(transform(f, r.matrix).coeffs, r.scale) == \
        r.output.coeffs
    assert r.output_height == height(r.output) <= r.input_height == height(f)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_forms(_KINDS + ("past-2^500",)))
def test_reduce_julia_report_or_domain_error(f):
    # every form gets a Julia report that its certificate checks, or a
    # DomainError
    try:
        r = reduce_julia(f)
    except DomainError:
        return
    assert scaled_primitive(transform(f, r.matrix).coeffs, r.scale) == \
        r.output.coeffs
    assert r.output_height == height(r.output) <= r.input_height == height(f)


def test_shift_descent_matches_reference(rng):
    # keeping the best walked form gives the report of shifting the input
    # by the best m afterwards, for every patience
    ngons = enumerate_ngons(lattice_points(4), 5)
    fs = [reduce_hyperbolic(from_upper_roots(
              [UhpPoint(x, y) for x, y in roots])).output
          for i, roots in enumerate(ngons) if i % 97 == 0]
    for k in range(150):  # leading coefficient zero, negative or random
        n = int(rng.integers(1, 8))
        coeffs = [int(v) for v in rng.integers(-60, 61, n + 1)]
        coeffs[0] = [0, -abs(coeffs[0]) or -1, coeffs[0]][k % 3]
        if any(coeffs):
            fs.append(BinaryForm(tuple(coeffs)))
    # the end value f0(m, 1) bounds the height at shift m from below; where
    # it is 0 or small, with a zero trailing coefficient or integer roots
    # x - r y next to the walk, it must not rule out a winning step
    for k in range(200):
        if k % 2:
            coeffs = [int(v) for v in rng.integers(-40, 41, k % 7 + 1)] + [0]
        else:
            cofactor = rng.integers(-20, 21, int(rng.integers(1, 4)))
            coeffs = [int(v) or 1 for v in cofactor]
            for r in rng.integers(-6, 7, int(rng.integers(1, 4))):
                coeffs = poly_mul(coeffs, [1, -int(r)])
        if any(coeffs):
            fs.append(BinaryForm(tuple(coeffs)))
    moved = at_root = 0
    for f in fs:
        for patience in range(1, 5):
            r = shift_descent(f, patience)
            assert r == shift_descent_reference(f, patience), (f, patience)
            assert r.to_json_dict() == \
                shift_descent_reference(f, patience).to_json_dict()
            moved += r.matrix != UnimodularMatrix.identity()
            at_root += r.matrix.b != 0 and primitive(f)(r.matrix.b, 1) == 0
    assert moved > 100 and sum(f.coeffs[0] <= 0 for f in fs) > 80
    assert at_root > 50


def test_coefficients_past_the_doubles_are_a_domain_error(capsys):
    from formred.cli import main

    big = 10 ** 400
    for fn in (minimize, reduce_julia, reduce_hyperbolic, reduce_com):
        with pytest.raises(DomainError, match="2\\^1024"):
            fn(BinaryForm((1, 0, big)))
    for command in (["minimize"], ["reduce", "--method", "julia"]):
        assert main(command + ["--coeffs", f"1,0,{big}"]) == 3
        assert "2^1024" in capsys.readouterr().err


def test_overflowing_double_roots_end_in_domain_errors():
    # (1, 10^200, 10^300) gets its two real roots, so neither pipeline has a
    # zero point; x^2 + (2^1024 - 2^970 - 1) y^2 gets its roots +-2^512 i,
    # whose |z|^2 overflows the doubles in the hyperbolic centroid and the
    # Julia solve
    f = BinaryForm((1, 10 ** 200, 10 ** 300))
    for fn in (minimize, reduce_julia):
        with pytest.raises(DomainError, match="signature \\(2, 0\\)"):
            fn(f)
    g = BinaryForm((1, 0, 2 ** 1024 - 2 ** 970 - 1))
    for fn, what in ((minimize, "centroid"), (reduce_hyperbolic, "centroid"),
                     (reduce_julia, "Julia zero")):
        with pytest.raises(DomainError,
                           match=f"overflows the doubles: no {what}"):
            fn(g)


@pytest.mark.parametrize("coeffs", TINY_ROOT_FORMS)
def test_tiny_definite_roots_reduce_hyperbolically(coeffs):
    # conjugate roots within 1e-8 of the real axis are not real: both the
    # hyperbolic stage and the whole pipeline give checked reports
    f = BinaryForm(coeffs)
    for r in (reduce_hyperbolic(f), minimize(f)):
        assert r.zero_used is not None
        assert scaled_primitive(transform(f, r.matrix).coeffs, r.scale) == \
            r.output.coeffs
        assert r.output_height == height(r.output) <= r.input_height == height(f)


@pytest.mark.parametrize("fn,coeffs", [
    (reduce_julia, (2 ** 512, 0, 2 ** 512)),  # c_0^2 overflows in theta_0
    (reduce_julia, (1, 0, 0, 0, 2 ** 1020)),  # and |D|^(n/2)
    (minimize, poly_mul(poly_mul([2 ** 600, -2 ** 600], [1, -2]), [1, -3])),
    (reduce_julia, (1, 0, 2 ** 1023)),  # the D_k of roots +-2^511.5 i
    # roots 5 * 2^498 and +-2^-234: scaled no further than below 2^500,
    # the small roots keep their range
    (reduce_julia, (1, -5 * 2 ** 498, 0, 2 ** 32)),
], ids=["big-c0", "big-disc", "big-real-cubic", "big-roots", "spread-roots"])
def test_overflowing_julia_forms_get_reports(fn, coeffs):
    f = BinaryForm(tuple(coeffs))
    r = fn(f)
    assert scaled_primitive(transform(f, r.matrix).coeffs, r.scale) == \
        r.output.coeffs
    assert r.output_height == height(r.output) <= r.input_height == height(f)


@pytest.mark.xfail(strict=True, raises=(OverflowError, ConvergenceError),
                   reason="root certification cannot yet span roots spread "
                          "this far apart (CHANGES.md, FOUND)")
@pytest.mark.parametrize("coeffs", [
    (1, 2 ** 52, 0, 1),  # LAPACK returns 0 twice for the roots +-2^-26 i
    (1, 2 ** 154, 0, 1),  # a disc radius overflows the doubles
], ids=["coincident-starts", "radius"])
def test_widely_spread_roots_get_reports(coeffs):
    f = BinaryForm(coeffs)
    for fn in (minimize, reduce_julia):
        try:
            r = fn(f)
        except DomainError:
            continue
        assert scaled_primitive(transform(f, r.matrix).coeffs, r.scale) == \
            r.output.coeffs


def test_sweep_start_past_the_doubles():
    # the roots of 3x^2 + 2^514 xy + y^2, near -2^514 / 3 and -2^-514, are
    # not certified by pass 1; the first sweep's grid is 2^-597, set by the
    # small root, and the large one on it, near 2^1109, is past the doubles
    f = BinaryForm((3, 2 ** 514, 1))
    rs = roots_upper(f)
    big = -2.0 ** 514 / 3
    assert rs.upper == () and not rs.repeated
    assert rs.real == pytest.approx((big, 1 / (3 * big)), rel=1e-15)
    for fn in (minimize, reduce_julia):
        with pytest.raises(DomainError, match=r"signature \(2, 0\)"):
            fn(f)


def test_minimize_shift_composition_equivariance(rng, triangle):
    base = minimize(triangle).output_height
    for K in (-50, -17, 3, 50):
        assert minimize(shift(triangle, K)).output_height == base


def test_report_serialization(triangle):
    r = reduce_hyperbolic(triangle)
    d = r.to_json_dict()
    assert d["output_height"] == 1_807_810
    assert d["matrix"] == [[1, 17], [0, 1]]
    assert d["input"][0] == "1" and d["input"][-1] == "47831060"
    assert d["scale"] == "1"


@pytest.mark.parametrize("coeffs,h_minimize,h_julia", [
    ((1, 8, 24, 32, 16), 1, 1),  # (x+2y)^4
    ((4, 16, 24, 16, 4, 0, 0), 2, 2),  # 4 x^2 (x+y)^4
    ((16, 40, 9, -53, -53, -15), 10, 40),  # (x+y)^3 (4x-5y)(4x+3y)
    ((1, -3, 3, -1), 1, 1),  # (x-y)^3
], ids=["quadruple-quartic", "quadruple-sextic", "triple-quintic",
        "triple-cubic"])
def test_unstable_forms_reduce_with_certificate(coeffs, h_minimize, h_julia):
    # a real root of multiplicity >= n/2: minimize skips the zero-point
    # stage, and reduce_julia sends that root to infinity
    f = BinaryForm(coeffs)
    for fn, want in ((minimize, h_minimize), (reduce_julia, h_julia)):
        r = fn(f)
        assert r.output_height == want and r.zero_used is None
        assert scaled_primitive(transform(f, r.matrix).coeffs, r.scale) == \
            r.output.coeffs
        assert r.output_height == height(r.output) <= r.input_height == height(f)


def test_repeated_root_population_runs_without_mpmath():
    # in a fresh interpreter: every repeated-root form of the benchmark's
    # mixed population reduces from the squarefree split alone
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = """
import sys
import formred as fr
import workloads
forms = workloads.mixed_population(fr)[workloads.REPEATED]
assert len(forms) == 36
for f in forms:
    fr.minimize(f)
    fr.reduce_julia(f)
assert "mpmath" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_end_value_bounds_skip_most_candidates(monkeypatch):
    # every result equals its oracle with or without the end-value bounds,
    # so only counting shows them at work: on the pentagon stage-1 sample,
    # shift_descent builds 0.10 of its steps' shifted forms, and
    # scale_search on the stage-2 forms expands 0.32 of its pairs
    counts = dict.fromkeys(("steps", "built", "pairs", "expanded"), 0)

    def counting(fn, key, size=lambda out: 1):
        def counted(*args):
            out = fn(*args)
            counts[key] += size(out)
            return out
        return counted

    monkeypatch.setattr(formred.reduce, "_taylor_shift",
                        counting(formred.reduce._taylor_shift, "built"))
    monkeypatch.setattr(formred.reduce, "_scale_pairs",
                        counting(formred.reduce._scale_pairs, "pairs", len))
    monkeypatch.setattr(formred.reduce, "_scaled",
                        counting(formred.reduce._scaled, "expanded"))
    # the reference walk shifts once per step, and once more at the end
    monkeypatch.setattr(formred, "shift", counting(formred.shift, "steps"))
    ngons = enumerate_ngons(lattice_points(4), 5)
    fs = [reduce_hyperbolic(from_upper_roots(
              [UhpPoint(x, y) for x, y in roots])).output
          for i, roots in enumerate(ngons) if i % 97 == 0]
    for f in fs:
        for patience in range(1, 5):
            stage2 = shift_descent(f, patience)
            shift_descent_reference(f, patience)
            counts["steps"] -= 1
            scale_search(stage2.output, 64)
    assert counts["steps"] > 2000 and counts["pairs"] > 1000
    assert counts["built"] < 0.25 * counts["steps"]
    assert counts["expanded"] < 0.5 * counts["pairs"]
