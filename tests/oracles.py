"""Independent oracles the tests check the library against.

Everything here is deliberately written from the definitions (brute force,
exhaustive scans, generic numeric minimizers) and shares no code with the
implementation paths it verifies.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize as sp_minimize


def gcd_list(values):
    g = 0
    for v in values:
        g = math.gcd(g, abs(v))
    return g


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def quad_eval(abc, x, y):
    a, b, c = abc
    return a * x * x + b * x * y + c * y * y


def reduce_quad_brute(abc, depth=12):
    """Reduce [a,b,c] by breadth-first search over short SL2(Z) words."""
    def translate(q, m):
        a, b, c = q
        return (a, b + 2 * a * m, a * m * m + b * m + c)

    def flip(q):
        a, b, c = q
        return (c, -b, a)

    seen = {tuple(abc)}
    frontier = [tuple(abc)]
    best = tuple(abc)
    for _ in range(depth):
        nxt = []
        for q in frontier:
            for cand in (translate(q, 1), translate(q, -1), flip(q)):
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    reduced = [q for q in seen if abs(q[1]) <= q[0] <= q[2]]
    reduced = [q for q in reduced
               if not (q[1] < 0 and (-q[1] == q[0] or q[0] == q[2]))]
    assert reduced, "no reduced form reached; increase depth"
    return min(reduced)


def enumerate_reduced_scan(D, primitive_only=False):
    """Exhaustive double loop over (a, b) with c solved from the discriminant."""
    out = set()
    bmax = math.isqrt(D // 3) + 2
    amax = math.isqrt(D // 3) + 2
    for b in range(-bmax, bmax + 1):
        for a in range(1, amax + 1):
            num = b * b + D
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if not (abs(b) <= a <= c):
                continue
            if b < 0 and (-b == a or a == c):
                continue
            if primitive_only and math.gcd(math.gcd(a, b), c) != 1:
                continue
            out.add((a, b, c))
    return out


def dist_crossratio(z, w):
    """Hyperbolic distance from the ideal-endpoint cross ratio."""
    x1, y1 = float(z[0]), float(z[1])
    x2, y2 = float(w[0]), float(w[1])
    if abs(x1 - x2) < 1e-300:
        return abs(math.log(y2 / y1))
    # circle center xi on the real axis: |z - xi| = |w - xi|
    xi = (x1 * x1 + y1 * y1 - x2 * x2 - y2 * y2) / (2 * (x1 - x2))
    r = math.hypot(x1 - xi, y1)
    a, b = xi - r, xi + r  # ideal endpoints
    za, zb = math.hypot(x1 - a, y1), math.hypot(x1 - b, y1)
    wa, wb = math.hypot(x2 - a, y2), math.hypot(x2 - b, y2)
    return abs(math.log((za / zb) * (wb / wa)))


def centroid_minimize(points, tol=1e-13):
    """2-D minimization of sum ((t-x)^2+(u-y)^2)/(u y) straight from the
    definition: Nelder-Mead, then Newton on the objective's own gradient."""
    xs = np.array([float(p[0]) for p in points])
    ys = np.array([float(p[1]) for p in points])

    def obj(v):
        t, logu = v
        u = math.exp(logu)
        return float(np.sum(((t - xs) ** 2 + (u - ys) ** 2) / (u * ys)))

    def grad(t, u):
        gt = float(np.sum(2 * (t - xs) / (u * ys)))
        gu = float(np.sum(2 * (u - ys) / (u * ys)
                          - ((t - xs) ** 2 + (u - ys) ** 2) / (u * u * ys)))
        return np.array([gt, gu])

    start = [xs.mean(), math.log(ys.mean())]
    res = sp_minimize(obj, start, method="Nelder-Mead",
                      options=dict(xatol=tol, fatol=tol,
                                   maxiter=50000, maxfev=50000))
    t, u = res.x[0], math.exp(res.x[1])
    for _ in range(40):
        g = grad(t, u)
        h = 1e-6 * (1 + abs(t) + u)
        H = np.column_stack([(grad(t + h, u) - grad(t - h, u)) / (2 * h),
                             (grad(t, u + h) - grad(t, u - h)) / (2 * h)])
        try:
            step = np.linalg.solve(0.5 * (H + H.T), -g)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        t, u = t + step[0], max(u + step[1], 1e-12)
        if np.max(np.abs(step)) < 1e-12 * (1 + abs(t) + u):
            break
    return t, u


def julia_zero_grid(coeffs_descending, upper_roots):
    """Grid search plus Nelder-Mead polish of theta_0 over the complex-pair
    weights on the sum-log-zero slice; totally complex forms only."""
    xs = np.array([float(x) for x, _ in upper_roots])
    ys = np.array([float(y) for _, y in upper_roots])
    s = len(upper_roots)
    n = 2 * s
    a0 = float(coeffs_descending[0])

    def theta_log(logu):
        u2 = np.exp(2 * np.asarray(logu))
        A = 2 * np.sum(u2)
        B = -4 * np.sum(u2 * xs)
        C = 2 * np.sum(u2 * (xs ** 2 + ys ** 2))
        D = B * B - 4 * A * C
        return math.log(a0 ** 2) + (n / 2) * math.log(abs(D)) - 2 * np.sum(np.log(u2))

    best = None
    grid = np.linspace(-2.0, 2.0, 41)
    for combo in itertools.product(grid, repeat=s - 1):
        v = list(combo) + [-sum(combo)]
        val = theta_log(v)
        if best is None or val < best[0]:
            best = (val, v)
    res = sp_minimize(theta_log, best[1], method="Nelder-Mead",
                      options=dict(xatol=1e-12, fatol=1e-13,
                                   maxiter=50000, maxfev=50000))
    u2 = np.exp(2 * res.x)
    A = 2 * np.sum(u2)
    B = -4 * np.sum(u2 * xs)
    C = 2 * np.sum(u2 * (xs ** 2 + ys ** 2))
    D = B * B - 4 * A * C
    return -B / (2 * A), math.sqrt(abs(D)) / (2 * A)


def scaled_primitive(coeffs_descending, lam):
    """Coefficients c_i u^(n-i) v^i for lam = u/v, divided by their content,
    leading nonzero coefficient positive."""
    u, v = lam.numerator, lam.denominator
    n = len(coeffs_descending) - 1
    g = [c * u ** (n - i) * v ** i for i, c in enumerate(coeffs_descending)]
    cont = gcd_list(g)
    sign = 1 if next(x for x in g if x) > 0 else -1
    return tuple(sign * x // cont for x in g)


def scale_exhaustive(coeffs_descending, bound):
    """(height, lambda) of the best scaling x -> (u/v) x, straight from the
    definition: every coprime 1 <= u, v <= bound, ties to the smallest
    (u + v, u), so lambda = 1 wins any tie."""
    best = None
    for u in range(1, bound + 1):
        for v in range(1, bound + 1):
            if math.gcd(u, v) != 1:
                continue
            lam = Fraction(u, v)
            h = max(abs(x) for x in scaled_primitive(coeffs_descending, lam))
            key = (h, u + v, u)
            if best is None or key < best[0]:
                best = (key, lam)
    return best[0][0], best[1]


def feasible_cut(coeffs_descending, bound):
    """Whether the exact cap of the scaling scan drops a content-feasible
    u or v up to `bound`: some u <= bound whose primes all divide c_n has
    u^n >= |c_n| h, or some v whose primes all divide c_0 has
    v^n >= |c_0| h (h the height of the primitive form), with the zero end
    coefficients stripped first."""
    nonzero = [i for i, x in enumerate(coeffs_descending) if x]
    c = coeffs_descending[nonzero[0]:nonzero[-1] + 1]
    n, h = len(c) - 1, max(abs(x) for x in c)
    # every prime of w divides e exactly when w divides e^w (as w < 2^w)
    return any(w ** n >= abs(e) * h and pow(e, w, w) == 0
               for e in (c[-1], c[0]) for w in range(2, bound + 1))


def _conv(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def transform_reference(coeffs_descending, a, b, c, d):
    """Coefficients of f(a x + b y, c x + d y) in O(n^3): the powers of both
    linear forms, convolved once per coefficient."""
    n = len(coeffs_descending) - 1
    row = [[1]]  # powers of (a*x + b*y)
    for _ in range(n):
        row.append(_conv(row[-1], [a, b]))
    col = [[1]]  # powers of (c*x + d*y)
    for _ in range(n):
        col.append(_conv(col[-1], [c, d]))
    out = [0] * (n + 1)
    for i, coeff in enumerate(coeffs_descending):
        if coeff == 0:
            continue
        term = _conv(row[n - i], col[i])
        for j, v in enumerate(term):
            out[j] += coeff * v
    return tuple(out)


def horner2_reference(coeffs, z):
    """p(z), p'(z) and a bound on the rounding error of the p(z) evaluation,
    by complex Horner in doubles."""
    p = dp = 0j
    e = 0.0
    for c in coeffs:
        dp = dp * z + p
        p = p * z + c
        e = e * abs(z) + abs(p)
    return p, dp, e * 2.2e-16


def polish_root_reference(coeffs, z):
    """At most three Newton steps in doubles, then one more evaluation at
    the result: (root, ill), ill when the rounding bound keeps the forward
    error above ~1e-13."""
    for _ in range(3):
        p, dp, _ = horner2_reference(coeffs, z)
        if dp == 0:
            break
        step = p / dp
        z = z - step
        if abs(step) < 1e-16 * (1 + abs(z)):
            break
    _, dp, ebound = horner2_reference(coeffs, z)
    ill = dp == 0 or ebound / abs(dp) > 1e-13 * (1 + abs(z))
    return z, ill


def double_roots_reference(coeffs):
    """numpy's roots of the integer polynomial, each polished on its own by
    `polish_root_reference`, and whether any is ill."""
    polished = [polish_root_reference(coeffs, complex(z))
                for z in np.roots([float(c) for c in coeffs])]
    return [z for z, _ in polished], any(ill for _, ill in polished)


def wgcd(coeffs_descending):
    """Weighted gcd of the ascending coefficients a_1..a_n with weights
    (1, ..., n): the largest d with d^i dividing a_i for every i >= 1."""
    tail = list(coeffs_descending[::-1][1:])
    g = gcd_list(tail)
    if g == 0:
        return 1
    divisors = {e for d in range(1, math.isqrt(g) + 1) if g % d == 0
                for e in (d, g // d)}
    return max(d for d in divisors
               if all(c % d ** i == 0 for i, c in enumerate(tail, start=1)))


def scale_lemma(coeffs_descending):
    """The classical scaling lemma: p = gcd(a_0, wgcd(a_1..a_n)) with a_0 the
    trailing coefficient; returns p and the scaled primitive coefficients.
    p divides the content, so on primitive input p = 1."""
    p = math.gcd(coeffs_descending[-1], wgcd(coeffs_descending))
    return p, scaled_primitive(coeffs_descending, Fraction(p))


def centroid_u2_double_sum(a, b):
    """u^2 of the hyperbolic centroid of the roots of prod_i (X^2 + a_i X Z +
    b_i Z^2), from the explicit double-sum formula in d_i = sqrt(4 b_i - a_i^2):
    u^2 = prod d * (s * sum d + sum_{i<j} p_ij (a_i - a_j)^2) / (4 s^2), with
    p_i, p_ij the products of the d_k over k != i (and k != j), s = sum p_i."""
    n = len(a)
    ds = [math.sqrt(4.0 * float(bi) - float(ai) ** 2) for ai, bi in zip(a, b)]
    af = [float(v) for v in a]
    s = sum(math.prod(ds[:i] + ds[i + 1:]) for i in range(n))
    pair_sum = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            pij = math.prod(ds[k] for k in range(n) if k != i and k != j)
            pair_sum += pij * (af[i] - af[j]) ** 2
    return math.prod(ds) * (s * sum(ds) + pair_sum) / (4.0 * s * s)


def round_tie(x, tie):
    """Nearest integer to the rational x under a comparison tie convention:
    half away from zero, half to even, half toward zero, half up, or half up
    after rounding the double nearest x to 2 decimals ('up-2dp')."""
    if tie == "up-2dp":
        return math.floor(round(float(x), 2) + 0.5)
    x = Fraction(x)
    half = Fraction(1, 2)
    sign = -1 if x < 0 else 1
    if tie == "away":
        return sign * math.floor(abs(x) + half)
    if tie == "zero":
        return sign * math.ceil(abs(x) - half)
    if tie == "up":
        return math.floor(x + half)
    if tie == "even":
        return round(x)
    raise ValueError(tie)


def julia_report_oracle(r2, k):
    """(differ, total, ties) of the true-Julia vs center-of-mass report, one
    n-gon at a time: the scalar `minimize_theta0` zero of the form, snapped
    to the nearest half-integer when within 1e-9 of it (`ties` counts those)
    and rounded half away from zero, against the exact center-of-mass
    shift."""
    from formred import (UhpPoint, UpperRootSet, from_upper_roots,
                         lattice_points, minimize_theta0)

    differ = total = ties = 0
    for roots in itertools.combinations(lattice_points(r2), k):
        pts = tuple(UhpPoint(x, y) for x, y in roots)
        t = minimize_theta0(from_upper_roots(pts),
                            roots=UpperRootSet(upper=pts, real=())).zero.t
        half = math.floor(abs(t)) + 0.5
        tie = abs(abs(t) - half) < 1e-9
        m_julia = round_tie(Fraction(half if tie else abs(t)), "away")
        if t < 0:
            m_julia = -m_julia
        m_com = round_tie(Fraction(sum(x for x, _ in roots), k), "away")
        differ += m_julia != m_com
        total += 1
        ties += tie
    return differ, total, ties


def binomial_shift(coeffs_descending, m):
    """Coefficients of f(x + m y, y) = sum_i c_i (x + m y)^(n-i) y^i, by the
    binomial theorem."""
    n = len(coeffs_descending) - 1
    out = [0] * (n + 1)
    for i, c in enumerate(coeffs_descending):
        for j in range(n - i + 1):
            out[i + j] += c * math.comb(n - i, j) * m ** j
    return out


def inverse_y_weights(ys):
    """The (1/y) weights prod_{k != i} y_k, one product per weight."""
    return [math.prod(ys[:i] + ys[i + 1:]) for i in range(len(ys))]


def compare_record(roots, tie="up-2dp"):
    """One n-gon of the head-to-head comparison, from the definitions: the
    form prod (x - z_i y)(x - conj(z_i) y), its center-of-mass shift m_com and
    (1/y)-weighted centroid shift m_hyp, and the heights (largest absolute
    coefficient) of f(x + m y, y) for each.  Returns (m_com, m_hyp, h_com,
    h_hyp)."""
    coeffs = [1]
    for x, y in roots:
        coeffs = poly_mul(coeffs, [1, -2 * x, x * x + y * y])
    xs = [x for x, _ in roots]
    w = inverse_y_weights([y for _, y in roots])
    m_com = round_tie(Fraction(sum(xs), len(xs)), tie)
    m_hyp = round_tie(Fraction(sum(wi * x for wi, x in zip(w, xs)), sum(w)), tie)

    def shifted_height(m):
        return max(abs(v) for v in binomial_shift(coeffs, m))

    return m_com, m_hyp, shifted_height(m_com), shifted_height(m_hyp)


def record_line(rec):
    """One JSONL database line, written with json.dumps: compact roots and
    coefficients (as strings), centers with 6 decimals."""
    roots = json.dumps([[x, y] for x, y in rec.roots], separators=(",", ":"))
    coeffs = json.dumps([str(c) for c in rec.coeffs], separators=(",", ":"))
    return '{"roots":%s,"coeffs":%s,"com":[%.6f,%.6f],"hyp":[%.6f,%.6f]}' % (
        roots, coeffs, rec.com[0], rec.com[1], rec.hyp[0], rec.hyp[1])


def index_chunks_reference(n, k, lo, hi, rows):
    """The k-subsets of range(n) whose first index lies in [lo, hi), in
    lexicographic order, as int64 blocks of `rows` rows (the last may be
    shorter), cut from one flat itertools stream."""
    combos = itertools.chain.from_iterable(
        c for c in itertools.combinations(range(n), k) if lo <= c[0] < hi)
    while True:
        arr = np.fromiter(itertools.islice(combos, rows * k), dtype=np.int64)
        if arr.size == 0:
            return
        yield arr.reshape(-1, k)


def maxdist_keys_reference(X, Y, metric, scan_u):
    """The max-distance scan's key of each row of float64 (x, y) columns,
    from all k roots of the row at once: center of mass (mean x, mean y),
    hyperbolic centroid t = F / s with the (1/y) weights w_i = prod of the
    other y, s = sum w and F = sum w x, and u = sum w y / s ('mean-y') or
    sqrt((G s - F^2) / s^2) with G = sum w |z|^2 ('definition'); the key is
    the squared Euclidean distance d2, or d2 / (2 u_com u_hyp) for
    'hyperbolic'."""
    k = X.shape[1]
    W = np.stack([np.prod(np.delete(Y, i, axis=1), axis=1) for i in range(k)],
                 axis=1)
    s = W.sum(axis=1)
    com_t, com_u = X.mean(axis=1), Y.mean(axis=1)
    F = (W * X).sum(axis=1)
    hyp_t = F / s
    if scan_u == "mean-y":
        hyp_u = (W * Y).sum(axis=1) / s
    else:
        G = (W * (X * X + Y * Y)).sum(axis=1)
        hyp_u = np.sqrt((G * s - F * F) / (s * s))
    d2 = (com_t - hyp_t) ** 2 + (com_u - hyp_u) ** 2
    if metric == "hyperbolic":
        return d2 / (2.0 * com_u * hyp_u)
    return d2


def minimize_cascade(f, patience=3, bound=64, tie="away"):
    """The full pipeline with stage 1 picked by trial: hyperbolic reduction,
    on DomainError center of mass, on DomainError again Julia; then shift
    descent and the scaling scan.  Built from the public stage functions, so
    each attempt finds the roots again.

    It mirrors `minimize` only on stable forms.  `minimize` sends an
    unstable form (`reduce._unstable_root`) straight to shift descent, so
    the two differ there: (4,16,24,16,4,0,0) reaches height 2 under
    `minimize` and 1 here, (16,40,9,-53,-53,-15) reaches 10 against 22."""
    from formred import (DomainError, ReductionReport, reduce_com,
                         reduce_hyperbolic, reduce_julia, scale_search,
                         shift_descent)

    if f.degree < 2:
        raise DomainError("minimize needs degree >= 2")
    try:
        stage1 = reduce_hyperbolic(f)
    except DomainError:
        try:
            stage1 = reduce_com(f, tie=tie)
        except DomainError:
            stage1 = reduce_julia(f)
    stage2 = shift_descent(stage1.output, patience)
    stage3 = scale_search(stage2.output, bound)
    return ReductionReport(f, stage3.output, stage1.matrix @ stage2.matrix,
                           stage3.scale, "full", stage1.input_height,
                           stage3.output_height, stage1.zero_used)


def shift_descent_reference(f, patience=3):
    """Shift descent as a walk that keeps only the best shift m, whose form
    shift(f0, m) then goes through `reduce._finish`."""
    from formred import UnimodularMatrix, primitive, shift
    from formred.reduce import _finish

    f0 = primitive(f)
    best_h, best_m = max(map(abs, f0.coeffs)), 0
    for direction in (1, -1):
        cur, misses, m = f0, 0, 0
        while misses < patience:
            m += direction
            cur = shift(cur, direction)
            h = max(map(abs, cur.coeffs))
            if h < best_h:
                best_h, best_m, misses = h, m, 0
            else:
                misses += 1
    return _finish(f, shift(f0, best_m), UnimodularMatrix.translation(best_m),
                   "shift-descent")


def random_sl2(rng, span=5):
    """Random SL2(Z) matrix with small entries, via extended gcd."""
    while True:
        a = int(rng.integers(-span, span + 1))
        c = int(rng.integers(-span, span + 1))
        if math.gcd(a, c) == 1 and (a, c) != (0, 0):
            break
    # solve a*d - b*c = 1
    g, x, y = _egcd(a, c)
    d, b = x, -y
    shift = int(rng.integers(-2, 3))
    # (a, b + shift*a, c, d + shift*c) keeps det 1
    return a, b + shift * a, c, d + shift * c


def _egcd(a, b):
    if b == 0:
        return (a, 1, 0) if a > 0 else (-a, -1, 0)
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def theta0_log_gradient(real_roots, upper_roots, t, u, degree):
    """Projected gradient of log theta_0 in the log-weights xi_k = log p_k
    (p = t_i^2 for a real root, u_j^2 for a conjugate pair), straight from the
    definition theta_0 = c_0^2 |disc Q|^(n/2) / (prod t_i^2 prod u_j^4) with
    Q = sum t_i^2 (x - a_i y)^2 + sum 2 u_j^2 (x - b_j y)(x - conj(b_j) y),
    in exact rational arithmetic on the given float roots and weights."""
    rows = [(1, -2 * Fraction(a), Fraction(a) ** 2) for a in real_roots]
    rows += [(2, -4 * Fraction(x), 2 * (Fraction(x) ** 2 + Fraction(y) ** 2))
             for x, y in upper_roots]
    m = [1] * len(real_roots) + [2] * len(upper_roots)
    p = [Fraction(v) ** 2 for v in tuple(t) + tuple(u)]
    A, B, C = (sum(pk * row[i] for pk, row in zip(p, rows)) for i in range(3))
    disc = 4 * A * C - B * B  # |disc Q|
    G = [Fraction(degree, 2) * pk * (4 * (al * C + A * ga) - 2 * B * be) / disc
         - mk for pk, (al, be, ga), mk in zip(p, rows, m)]
    mean = sum(G) / len(G)  # the scaling direction is null
    return [float(g - mean) for g in G]


def rounded_roots(coeffs_descending):
    """The roots of an integer polynomial, each rounded to doubles, with
    multiplicity: (real roots ascending, upper half-plane roots by (t, u)).

    Each irreducible factor's real roots come from sympy's exact real root
    isolation (Poly.intervals), bisected in exact rationals until both ends
    round to the same double, so they are correctly rounded.  Upper roots
    come from sympy's nroots at 30 digits."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(list(coeffs_descending), x)
    real, upper = [], []
    # an irreducible factor of degree 2 or more changes sign at each real
    # root and vanishes at no rational interval end
    for factor, m in poly.factor_list()[1]:
        for (lo, hi), _ in factor.intervals():
            lo, hi = (Fraction(int(lo.p), int(lo.q)),
                      Fraction(int(hi.p), int(hi.q)))
            sign_lo = factor.eval(lo) > 0
            while float(lo) != float(hi):
                mid = (lo + hi) / 2
                if (factor.eval(mid) > 0) == sign_lo:
                    lo = mid
                else:
                    hi = mid
            real += [float(lo)] * m
        for z in factor.nroots(n=30, maxsteps=200):
            z = complex(z)
            if z.imag > 0:
                upper += [(z.real, z.imag)] * m
    return sorted(real), sorted(upper)


def _phi_reference(X, Y2, m, x, s):
    """Phi(x, e^s) = sum m_k log D_k - n s, D_k = (x - x_k)^2 + y^2 + y_k^2,
    its frame gradient (y dPhi/dx, dPhi/ds) and Hessian (h00, h01, h11) in
    the frame (dx / y, ds), term by term on numpy float64 scalars; Phi = inf
    where any is not finite."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y = np.exp(s)
        yy, y2, yy2 = y * y, 2 * y, 2 * y * y
        n = phi = g0 = q = a00 = a01 = a11 = 0.0
        for xk, yk2, mk in zip(X, Y2, m):
            d = x - xk
            D = d * d + yy + yk2
            e0, e1 = y2 * d / D, yy2 / D
            me0, me1 = mk * e0, mk * e1
            n += mk
            phi = phi + mk * np.log(D)
            g0, q = g0 + me0, q + me1
            a00, a01, a11 = a00 + me0 * e0, a01 + me0 * e1, a11 + me1 * e1
        P = np.array((phi - n * s, g0, q - n, q - a00, -a01, 2 * q - a11))
    if not np.isfinite(P).all():
        P[0] = math.inf
    return P[0], P[1:3], P[3:]


def _newton_step_reference(g, H):
    """-H^-1 g by the closed-form 2x2 solve on numpy values where H is
    positive definite, else -g_i / h_ii where both h_ii > 0, else -g."""
    h00, h01, h11 = H
    det = h00 * h11 - h01 * h01
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if h00 > 0 and det > 0:
            return np.array((h01 * g[1] - h11 * g[0],
                             h01 * g[0] - h00 * g[1])) / det
        if h00 > 0 and h11 > 0:
            return -g / np.array((h00, h11))
        return -g


def julia_zero_reference(X, Y2, m, x, y):
    """The single-form damped Newton for the Julia zero on numpy scalars,
    with `julia._julia_zero`'s start, steps, line search and stopping rule;
    (x, y), or None where the line search stalls or the steps run out."""
    from formred.julia import _GRAD_TOL, _HALVINGS, _MAX_STEPS, _PHI_RTOL

    x1, s = x, math.log(y)
    phi, g, H = _phi_reference(X, Y2, m, x1, s)
    for _ in range(_MAX_STEPS):
        gnorm = np.max(np.abs(g))
        step = _newton_step_reference(g, H)
        y1 = np.exp(s)
        if gnorm < _GRAD_TOL:
            trial = _phi_reference(X, Y2, m, x1 + y1 * step[0], s + step[1])
            if np.max(np.abs(trial[1])) <= gnorm:
                x1, s = x1 + y1 * step[0], s + step[1]
            return x1, np.exp(s)
        for _ in range(_HALVINGS):
            trial = _phi_reference(X, Y2, m, x1 + y1 * step[0], s + step[1])
            if trial[0] < phi or (
                    trial[0] < phi + _PHI_RTOL * (1 + abs(phi))
                    and np.max(np.abs(trial[1])) < 0.5 * gnorm):
                x1, s = x1 + y1 * step[0], s + step[1]
                phi, g, H = trial
                break
            step = step / 2
        else:
            break
    return None
