"""n-gon databases over Gaussian-integer roots and the batch experiments.

Roots live in the half-disc y >= 1, 1 < x^2 + y^2 <= r2^2 (the region whose
point counts make the reference n-gon totals exact binomials); each k-subset
yields a monic totally complex form of degree 2k.  The heavy passes run on
numpy blocks: the max-distance scan on float64, the true-Julia report on
float64 through one batched theta_0 Newton per block (`julia._julia_zeros`),
the head-to-head shift comparison on int64 or, where `_int64_safe` says the
shifted heights could overflow int64, on Python-int (object) blocks, so every
height comparison stays in exact integer arithmetic at every database size.
The database records are built from blocks too, on int64 or object columns:
exact coefficients, and centers that are each one correctly rounded quotient
of exact integers, so every record equals `build_record` of its roots.
Blocks run through the kernels single forms use, one numpy column per
coefficient or point: the root-quadratic product, the Taylor shift and the
(1/y) weights.
The k-subsets are walked without per-row Python work: each is a short
prefix and a tail of j indices, and the tails of a prefix are a suffix
`tails[start:]` of one lexicographic table of the j-subsets, which j keeps
within `_CHUNK_ROWS` = 200 000 rows (see `_prefix_tails`).  That table is
wide so that the Python loop over prefixes stays short.  The compare and
max-distance scans take a prefix's tails in slices of `_SCAN_ROWS` = 16 384
rows, 128 KB per 8-byte column, so that their many temporaries stay near a
core's L2 cache and reuse the C allocator's heap pages: at 200 000 rows each
was a fresh 1.6 MB mapping, about 31 000 minor page faults per r2=20 k=3
max-distance scan against 1 400.  `_index_chunks`, which feeds the Julia
report and the records, fills whole 200 000-row blocks from the same walk.

The scans compute, once per tail table, the tails' sums (sum x, sum y,
prod y and the (1/y)-weighted s, F = sum w x and G = sum w |z|^2) and, for
the comparison, the tails' coefficient columns; per prefix they join its
sums to each slice of them by broadcasting (`_join_sums`) and multiply the
tail forms by its root quadratics.  These are the same integers the whole
rows give, added in another order, so results are bit-identical wherever
the arithmetic is exact:

- comparison: every term and partial sum of the prefix x tail product is
  at most a coefficient of prod (x^2 + |A_i| x + |B_i|) over the row's root
  quadratics, hence at most (1 + r2)^(2k), the sums s and F at most
  k r2^k, and the shift intermediates at most (1 + r2)^(4k) (see
  `_shift_heights`), so int64 is exact where `_int64_safe` holds; object
  blocks are exact at every size;
- max distance: on float64, every weight is at most r2^(k-1) and every sum
  at most k r2^(k+1), so all of them are exact integers while
  k r2^(k+1) < 2^53.  The "definition" height is that of the records,
  u^2 = (G s - F^2) / s^2 (`_centers`), whose products stay exact while
  k^2 r2^(2k) < 2^53; each center is then the same correctly rounded
  quotient that the records store, so n-gons whose exact keys tie score
  equal keys, and `max_distance` gives the tie to the smallest root set.
  Past those bounds (no tested or benchmarked size gets there: r2 = 20
  needs k >= 6) the sums or products round, in an order that differs from
  the whole-row one, so a key may move in its last bits and a near-tie
  between two n-gons may go the other way.

The comparison gathers, expands and shifts only the rows whose two shifts
differ: equal shifts give equal heights, which count as the same result.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .forms import (UpperRootSet, _quadratic_product, _taylor_shift,
                    from_upper_roots)
from .hyper import (UhpPoint, _inverse_y_weights, _nint_ratio, center_of_mass,
                    hyperbolic_centroid)
from .julia import _julia_start, _julia_zeros, minimize_theta0

REGIONS = ("halfdisc-exclude-i", "positive-re")

# the CLI offers these keys as its --tie choices, in this order
TIE_NAMES = {
    "up-2dp": "half-up-after-2dp-round",
    "away": "away-from-zero",
    "even": "half-even",
    "zero": "half-toward-zero",
    "up": "half-up",
}

# Shift convention reproducing the reference comparison buckets exactly:
# round the center's t to 2 decimals first (the precision the reference
# databases stored) and then take floor(t + 1/2).
DEFAULT_COMPARE_TIE = "up-2dp"

# Conventions under which the reference max-distance witnesses reproduce
# (calibrated against the two worked examples; see README).  "mean-y" scores
# the centroid with u = psi(y, y), the weighted mean of the root heights,
# which is what the reference center values were computed with; the stored
# records always carry the definition's u, u^2 = psi(|z - t|^2, y).
DEFAULT_MAXDIST_METRIC = "euclidean"
DEFAULT_MAXDIST_SCOPE = "positive-re"
DEFAULT_MAXDIST_SCAN_U = "mean-y"
MAXDIST_METRICS = ("euclidean", "hyperbolic")
MAXDIST_SCOPES = ("positive-re", "all")
MAXDIST_SCAN_US = ("mean-y", "definition")

# the most rows of a tail table and of an `_index_chunks` block, and the rows
# of a compare or max-distance block (see the module docstring)
_CHUNK_ROWS = 200_000
_SCAN_ROWS = 16_384


@dataclass(frozen=True)
class LatticeConfig:
    """Parameters of one database: outer radius, k-gon size, region."""

    r2: int
    kgon: int
    region: str = REGIONS[0]

    def __post_init__(self):
        if self.r2 < 2:
            raise ValueError("r2 must be at least 2")
        if self.r2 > 64:
            raise ValueError("r2 > 64 is not supported (combinatorial blowup)")
        if self.kgon < 1:
            raise ValueError("kgon must be at least 1")
        if self.region not in REGIONS:
            raise ValueError(f"unknown region {self.region!r}")


@dataclass(frozen=True)
class NGonRecord:
    """One database row: sorted roots, exact coefficients, the two centers."""

    roots: tuple
    coeffs: tuple
    com: tuple
    hyp: tuple


@dataclass(frozen=True)
class CompareStats:
    total: int
    hyperbolic_wins: int
    julia_wins: int
    same: int

    def __post_init__(self):
        if self.total != self.hyperbolic_wins + self.julia_wins + self.same:
            raise ValueError("comparison buckets do not sum to the total")


def lattice_points(r2: int, region: str = REGIONS[0]):
    """Gaussian integers x + iy with y >= 1 and 1 < x^2 + y^2 <= r2^2,
    sorted lexicographically.  Region 'positive-re' additionally needs x >= 1."""
    if region not in REGIONS:
        raise ValueError(f"unknown region {region!r}")
    lo = 1 if region == "positive-re" else -r2
    return [(x, y) for x in range(lo, r2 + 1) for y in range(1, r2 + 1)
            if 1 < x * x + y * y <= r2 * r2]


def gauss_estimate(r1: float, r2: float) -> float:
    """Gauss-circle estimate pi * (r2^2 - r1^2) for the annulus point count."""
    if not 0 <= r1 <= r2:
        raise ValueError("need 0 <= r1 <= r2")
    return math.pi * (r2 * r2 - r1 * r1)


def enumerate_ngons(points, k: int, first_range=None):
    """Stream the k-subsets of `points` in lexicographic order.

    `first_range=(lo, hi)` restricts the index of the first element; the
    concatenation of disjoint ranges reproduces the full sequence, which is
    what the parallel passes rely on.  None when k exceeds the point
    count."""
    pts = tuple(points)
    if first_range is None:
        yield from itertools.combinations(pts, k)
        return
    lo, hi = first_range
    for i in range(lo, min(hi, len(pts) - k + 1)):
        for rest in itertools.combinations(pts[i + 1:], k - 1):
            yield (pts[i],) + rest


def build_record(roots) -> NGonRecord:
    """Expand one n-gon into a database record (exact coefficients, centers)."""
    roots = tuple(sorted(tuple(r) for r in roots))
    pts = [UhpPoint(x, y) for x, y in roots]
    form = from_upper_roots(pts)
    com = center_of_mass(pts)
    hyp = hyperbolic_centroid(pts)
    return NGonRecord(
        roots=roots,
        coeffs=form.coeffs,
        com=(float(com.t), float(com.u)),
        hyp=(float(hyp.t), float(hyp.u)),
    )


def generate_records(config: LatticeConfig, workers: int = 1):
    """Stream NGonRecords for the whole database in canonical order, built
    per index block (see `_records_range`); each equals `build_record` of
    its roots, value and type."""
    points = lattice_points(config.r2, config.region)
    r2, k = config.r2, config.kgon
    # int64 where the bounds of _records_range hold
    dtype = (np.int64 if _int64_safe(r2, k) and k * k * r2 ** (2 * k) < 2 ** 53
             else object)
    yield from _fan_out(_records_range, points, k, workers, dtype)


def _records_range(task):
    """Per index block, its NGonRecords: coefficients from `_expand_forms`
    and the `_centers` of the block's exact `_point_sums`, each one
    division of exact integers, hence correctly rounded, as float(Fraction)
    is: Python int / int on object blocks, float64 division on int64 ones,
    where every operand is below 2^53.  The coefficients fit int64 by
    `_int64_safe` (see `_shift_heights`), and with |x_i|, y_i, |z_i| <= r2,
    w_i <= r2^(k-1) bounds G s, F^2 and s^2 by k^2 r2^(2k), which
    `generate_records` keeps below 2^53."""
    points, k, dtype, lo, hi = task
    xs, ys = np.array(points, dtype=dtype).T
    for idx in _index_chunks(len(points), k, lo, hi):
        com_t, com_u, hyp_t, hyp_u = _centers(_point_sums(xs, ys, idx), k)
        coeffs = np.column_stack(_expand_forms(xs[idx], ys[idx])[1:]).tolist()
        yield from map(
            NGonRecord,
            [tuple(map(points.__getitem__, row)) for row in idx.tolist()],
            [(1, *row) for row in coeffs],
            zip(com_t.tolist(), com_u.tolist()),
            zip(hyp_t.tolist(), hyp_u.tolist()))


def _range_tasks(points, k: int, workers: int, *args):
    """Tasks (points, k, *args, lo, hi) splitting the k-subsets by the range
    [lo, hi) of their first index.  One range when workers <= 1, else
    2 * workers ranges of about equal row counts (comb(n - 1 - i, k - 1)
    subsets start at index i): few, since each task builds its own tail
    table (see `_prefix_tails`), but enough that no worker waits long on
    another.  When k exceeds the point count there is one empty range: the
    empty database, on which every engine reports."""
    n = len(points)
    last = max(n - k + 1, 0)
    if workers <= 1 or not last:
        return [(points, k, *args, 0, last)]
    rows = list(itertools.accumulate(math.comb(n - 1 - i, k - 1)
                                     for i in range(last)))
    parts = 2 * workers
    # a range ends after the first index at which p / parts of the rows end
    cuts = {bisect.bisect_left(rows, -(-rows[-1] * p // parts)) + 1
            for p in range(1, parts)}
    bounds = sorted(cuts | {0, last})
    return [(points, k, *args, lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _fan_out(fn, points, k: int, workers: int, *args):
    """Stream the items of fn(task) for the tasks of `_range_tasks`, in
    order: lazily here when workers <= 1, else from a pool of `workers`
    processes, at most the CPU count (a pool forks them all at once)."""
    workers = min(workers, os.cpu_count() or 1)
    tasks = _range_tasks(points, k, workers, *args)
    if workers <= 1:
        for task in tasks:
            yield from fn(task)
        return
    with ProcessPoolExecutor(max_workers=workers, initializer=_start_apart,
                             initargs=(multiprocessing.Value("i", 0),)) as pool:
        for items in pool.map(_listed, itertools.repeat(fn), tasks):
            yield from items


def _start_apart(counter):
    """Pool initializer: move the i-th worker to the i-th allowed CPU, then
    allow it every CPU again.  Forked workers may otherwise share their
    parent's CPU for most of a second while another CPU idles."""
    with counter.get_lock():
        i = counter.value
        counter.value += 1
    if hasattr(os, "sched_setaffinity"):
        allowed = sorted(os.sched_getaffinity(0))
        try:
            os.sched_setaffinity(0, {allowed[i % len(allowed)]})
            os.sched_setaffinity(0, allowed)
        except OSError:
            pass


def _listed(fn, task):
    return list(fn(task))


# ---------------------------------------------------------------------------
# vectorized scan engines
# ---------------------------------------------------------------------------

def _subset_table(n: int, j: int) -> np.ndarray:
    """The j-subsets of range(n) in lexicographic order, one per row.

    Those whose first entry exceeds p are the j-subsets of range(p + 1, n):
    the last comb(n - 1 - p, j) rows.  So the i-subsets are each a, followed
    by that suffix of the (i - 1)-subsets, and `_prefix_tails` takes the
    tails of a prefix ending at p as the same suffix."""
    table = np.zeros((1, 0), dtype=np.int64)
    for i in range(1, j + 1):
        counts = [math.comb(n - 1 - a, i - 1) for a in range(n)]
        tails = np.concatenate([table[len(table) - c:] for c in counts if c])
        table = np.hstack((np.repeat(np.arange(n), counts)[:, None], tails))
    return table


def _tail_table(n: int, k: int, rows: int = _CHUNK_ROWS) -> np.ndarray:
    """`_subset_table(n, j)` for the tail width j of `_prefix_tails`: the
    largest j <= k - 1 for which every i-subset table with i <= j has at
    most `rows` rows, which bounds the table and its construction.  The
    scans' slices may be shorter (see `_SCAN_ROWS`).  j <= n keeps the
    table buildable when k > n."""
    j = 0
    while j < min(k - 1, n) and math.comb(n, j + 1) <= rows:
        j += 1
    return _subset_table(n, j)


def _prefix_tails(n: int, k: int, lo: int, hi: int, tails: np.ndarray):
    """The k-subsets of range(n) whose first index lies in [lo, hi), in
    lexicographic order, as pairs (prefix, start): a prefix of k - j indices
    from `enumerate_ngons`, followed by each of its tails `tails[start:]`
    (maybe none), where `tails` is `_tail_table(n, k, r)` for any r: after a
    prefix ending at p, the last comb(n - 1 - p, j) rows.  No pairs when
    k > n."""
    size, j = tails.shape
    for prefix in enumerate_ngons(range(n), k - j, (lo, hi)):
        yield prefix, size - math.comb(n - 1 - prefix[-1], j)


def _index_chunks(n: int, k: int, lo: int, hi: int, rows: int = _CHUNK_ROWS):
    """The k-subsets of range(n) whose first index lies in [lo, hi), in
    lexicographic order, as blocks of `rows` whole index rows (the last may
    be shorter) filled from `_prefix_tails`; none when k > n."""
    tails = _tail_table(n, k, rows)
    size, j = tails.shape
    fill = rows
    for prefix, start in _prefix_tails(n, k, lo, hi, tails):
        while start < size:
            if fill == rows:
                # whole `rows`-row blocks (the last cut to a view): freeing
                # one raises glibc's mmap and trim thresholds, so the callers'
                # temporaries reuse heap pages (an exact-size block cost each
                # r2=4 k=5 Julia report about 1 900 faults and 15 % of its time)
                block, fill = np.empty((rows, k), dtype=np.int64), 0
            take = min(size - start, rows - fill)
            part = block[fill:fill + take]
            part[:, :k - j], part[:, k - j:] = prefix, tails[start:start + take]
            fill, start = fill + take, start + take
            if fill == rows:
                yield block
    if fill < rows:
        yield block[:fill]


def _point_sums(xs: np.ndarray, ys: np.ndarray, idx: np.ndarray,
                norms: bool = True) -> list:
    """Per row of the index columns idx (any width, 0 included), the sums
    the centers need, as columns in the dtype of xs and ys: [sum x, sum y,
    prod y, s, F] and, if `norms`, G, where w_i = prod_{l!=i} y_l are the
    row's (1/y) weights, s = sum w_i, F = sum w_i x_i and G = sum w_i
    |z_i|^2.  An empty row has prod 1 and all sums 0.

    Two rows join into the sums of their concatenation (`_join_sums`), so a
    k-subset's sums are its prefix's joined with its tail's."""
    X, Y = xs[idx].T, ys[idx].T
    zero = np.zeros(len(idx), dtype=xs.dtype)
    W, _ = _inverse_y_weights(Y)
    sums = [X.sum(axis=0), Y.sum(axis=0), Y.prod(axis=0), sum(W, zero),
            sum((w * x for w, x in zip(W, X)), zero)]
    if norms:
        sums.append(sum((w * (x * x + y * y) for w, x, y in zip(W, X, Y)),
                        zero))
    return sums


def _join_sums(head: list, tail: list) -> list:
    """`_point_sums` of rows that are a head followed by a tail.  A weight
    of a head point is its weight in the head times the tail's prod y, and
    the other way round: s = Pi_h s_t + s_h Pi_t, likewise F and G."""
    (sx, sy, pi, *rest), (tx, ty, tpi, *trest) = head, tail
    return [sx + tx, sy + ty, pi * tpi,
            *(pi * t + h * tpi for h, t in zip(rest, trest))]


def _centers(sums: list, k: int, scan_u: str = "definition"):
    """Center of mass and hyperbolic centroid of k-subsets from their
    `_point_sums` [sum x, sum y, prod y, s, F(, G)], in their dtype.

    scan_u picks the centroid height: "definition" is the u of
    `hyperbolic_centroid`, u^2 = (G s - F^2) / s^2, one quotient of exact
    integers as G s - F^2 = s sum w_i |z_i - F / s|^2 > 0, so the records
    and the max-distance scan take the same correctly rounded value;
    "mean-y" is psi(y, y) = k prod y / s (each w_i y_i is prod y), the
    convention behind the reference witnesses."""
    sx, sy, pi, s, F, *G = sums
    if scan_u == "mean-y":
        hyp_u = k * pi / s
    else:
        hyp_u = np.sqrt(np.asarray((G[0] * s - F * F) / (s * s),
                                   dtype=np.float64))
    return sx / k, sy / k, F / s, hyp_u


def _distance_key(metric, com_t, com_u, hyp_t, hyp_u):
    d2 = (com_t - hyp_t) ** 2 + (com_u - hyp_u) ** 2
    if metric == "hyperbolic":
        # monotone surrogate for acosh(1 + d2 / (2 u v))
        return d2 / (2.0 * com_u * hyp_u)
    return d2


def _maxdist_range(task):
    """Per tail slice: the largest distance key and its (first) index set."""
    points, k, metric, scan_u, lo, hi = task
    xs, ys = np.array(points, dtype=np.float64).T
    n, norms = len(points), scan_u == "definition"
    tails = _tail_table(n, k)
    tail_sums = _point_sums(xs, ys, tails, norms)
    for prefix, start in _prefix_tails(n, k, lo, hi, tails):
        head = _point_sums(xs, ys, np.array([prefix]), norms)
        for a in range(start, len(tails), _SCAN_ROWS):
            sums = _join_sums(head, [col[a:a + _SCAN_ROWS] for col in tail_sums])
            key = _distance_key(metric, *_centers(sums, k, scan_u))
            i = int(np.argmax(key))
            yield float(key[i]), (*prefix, *tails[a + i].tolist())


def max_distance(config: LatticeConfig, metric: str = DEFAULT_MAXDIST_METRIC,
                 scope: str = DEFAULT_MAXDIST_SCOPE,
                 scan_u: str = DEFAULT_MAXDIST_SCAN_U,
                 workers: int = 1) -> NGonRecord:
    """The record whose center of mass and hyperbolic centroid are farthest
    apart; ties go to the lexicographically smallest root set.

    `scope` restricts the scan to n-gons with all roots in that region
    (default 'positive-re', the restriction under which the reference
    witnesses are the maxima); the database region itself is unchanged.
    `scan_u` picks the centroid height used in the distance (see _centers).
    An empty scan, k above the point count, raises ValueError."""
    for name, value, allowed in (("metric", metric, MAXDIST_METRICS),
                                 ("scope", scope, MAXDIST_SCOPES),
                                 ("scan_u", scan_u, MAXDIST_SCAN_US)):
        if value not in allowed:
            raise ValueError(f"unknown {name} {value!r}")
    points = lattice_points(config.r2, "positive-re" if scope == "positive-re"
                            else config.region)
    k = config.kgon
    best_key, best_roots = -math.inf, None
    for key, combo in _fan_out(_maxdist_range, points, k, workers, metric,
                               scan_u):
        roots = tuple(points[i] for i in combo)
        if key > best_key or (key == best_key and roots < best_roots):
            best_key, best_roots = key, roots
    if best_roots is None:
        raise ValueError("empty scan")
    return build_record(best_roots)


# the compare engine's shift rounding, named apart so that it can be timed
_shifts_from_ratio = _nint_ratio


def _expand_forms(X: np.ndarray, Y: np.ndarray, tail=(1,)) -> list:
    """Coefficient columns of the rows' forms prod_i (x^2 - 2 x_i xy +
    (x_i^2+y_i^2) y^2) times the monic form with coefficient columns `tail`
    (default 1), in the dtype of X (int64, or object where `_int64_safe`
    fails); the leading coefficient is the number 1."""
    return _quadratic_product(((-2 * x, x * x + y * y)
                               for x, y in zip(X.T, Y.T)), tail)


def _shift_heights(coeffs: list, shifts: np.ndarray) -> np.ndarray:
    """Heights of the shifted (monic, hence primitive) forms, exact in the
    dtype of the coefficient columns: int64, or Python ints (object) where
    `_int64_safe` says int64 could overflow.

    After p passes, b[j] of the Taylor shift is sum_i c_i C(j-i+p-1, j-i)
    m^(j-i), binomials at most the final C(n-i, j-i).  So every intermediate
    (and every m b[j-1]) is at most sum_i |c_i| (1+|m|)^(n-i), which the
    root factors bound by (1 + |m| + r2)^(2k) <= (1 + r2)^(4k) < 2^62: |x_i|
    <= r2, x_i^2 + y_i^2 <= r2^2 and |m| <= r2 (m rounds a mean of x_i)."""
    return reduce(np.maximum, map(abs, _taylor_shift(list(coeffs), shifts)))


def _int64_safe(r2: int, k: int) -> bool:
    # bounds the coefficients and every shift intermediate: _shift_heights
    return (1 + r2) ** (4 * k) < 2 ** 62


def _compare_range(task):
    """Per tail slice: (rows, hyperbolic wins, julia wins, same).  Rows
    whose two shifts are equal have equal heights, so only the others are
    expanded and shifted (see `compare_stats`)."""
    points, k, tie, dtype, lo, hi = task
    xs, ys = np.array(points, dtype=dtype).T
    n = len(points)
    tails = _tail_table(n, k)
    tail_sums = _point_sums(xs, ys, tails, norms=False)
    tail_coeffs = _expand_forms(xs[tails], ys[tails])
    for prefix, start in _prefix_tails(n, k, lo, hi, tails):
        head = np.array([prefix])
        head_sums = _point_sums(xs, ys, head, norms=False)
        for a in range(start, len(tails), _SCAN_ROWS):
            sx, _, _, s, F = _join_sums(
                head_sums, [col[a:a + _SCAN_ROWS] for col in tail_sums])
            m_com = _shifts_from_ratio(sx, k, tie)
            m_hyp = _shifts_from_ratio(F, s, tie)
            d = np.flatnonzero(m_com != m_hyp)
            coeffs = _expand_forms(xs[head], ys[head],
                                   [1, *(col[a + d] for col in tail_coeffs[1:])])
            h_com = _shift_heights(coeffs, m_com[d])
            h_hyp = _shift_heights(coeffs, m_hyp[d])
            hyp, julia = int((h_hyp < h_com).sum()), int((h_com < h_hyp).sum())
            yield len(s), hyp, julia, len(s) - hyp - julia


def compare_stats(config: LatticeConfig, tie: str = DEFAULT_COMPARE_TIE,
                  workers: int = 1) -> CompareStats:
    """Head-to-head comparison over the whole database.

    Per record, the center-of-mass shift nint(com.t) plays the Julia role and
    the centroid shift nint(hyp.t) the hyperbolic role; the strictly smaller
    shifted height wins, equal heights count as the same result.  (Counting
    equal *shifts* as `same` gives identical buckets: equal shifts force
    equal heights, and unequal shifts with equal heights land in `same`
    either way.)"""
    if tie not in TIE_NAMES:
        raise ValueError(f"unknown rounding mode {tie!r}")
    points = lattice_points(config.r2, config.region)
    k = config.kgon
    dtype = np.int64 if _int64_safe(config.r2, k) else object
    parts = _fan_out(_compare_range, points, k, workers, tie, dtype)
    return CompareStats(*map(sum, zip((0, 0, 0, 0), *parts)))


def stats_json_dict(config: LatticeConfig, stats: CompareStats,
                    tie: str = DEFAULT_COMPARE_TIE) -> dict:
    return {
        "total": stats.total,
        "hyperbolic": stats.hyperbolic_wins,
        "julia": stats.julia_wins,
        "same": stats.same,
        "tie_convention": TIE_NAMES[tie],
        "region": config.region,
        "r2": config.r2,
        "k": config.kgon,
    }


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _record_line(rec: NGonRecord) -> str:
    # the compact JSON of the record; a record has at least one coefficient
    return ('{"roots":[%s],"coeffs":["%s"],"com":[%.6f,%.6f],"hyp":[%.6f,%.6f]}'
            % (",".join(map("[%d,%d]".__mod__, rec.roots)),
               '","'.join(map(str, rec.coeffs)), *rec.com, *rec.hyp))


def write_db(records, path) -> int:
    """Write records as JSONL (one object per line); returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(_record_line(rec))
            fh.write("\n")
            count += 1
    return count


def read_db(path):
    """Read a JSONL database back; malformed lines report their line number."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                com, hyp, coeffs = obj["com"], obj["hyp"], obj["coeffs"]
                roots = obj["roots"]
                if not (type(com) is list and type(hyp) is list
                        and len(com) == len(hyp) == 2):
                    raise ValueError("com and hyp must be two-element lists")
                # isfinite raises OverflowError on an integer past the floats
                centers = com + hyp
                if not (set(map(type, centers)) <= {int, float}
                        and all(map(math.isfinite, centers))):
                    raise ValueError("centers must be finite numbers")
                if not (type(roots) is list and roots and all(
                        type(r) is list and len(r) == 2 and type(r[0]) is int
                        and type(r[1]) is int for r in roots)):
                    raise ValueError("roots must be a nonempty list of "
                                     "two-element lists of integers")
                # join raises TypeError on a non-string, int() on a stray "-"
                digits = "".join(coeffs).replace("-", "")
                if not (type(coeffs) is list and digits.isascii()
                        and digits.isdigit()):
                    raise ValueError("coefficients must be decimal strings")
                if len(coeffs) != 2 * len(roots) + 1:
                    raise ValueError("a record of n roots has 2n + 1 "
                                     "coefficients")
                rec = NGonRecord(
                    roots=tuple(map(tuple, roots)),
                    coeffs=tuple(map(int, coeffs)),
                    com=(float(com[0]), float(com[1])),
                    hyp=(float(hyp[0]), float(hyp[1])),
                )
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise ValueError(f"{path}: malformed record on line {lineno}: {exc}")
            out.append(rec)
    return out


# ---------------------------------------------------------------------------
# true-Julia vs center-of-mass shift report
# ---------------------------------------------------------------------------

# Julia zeros snap to multiples of 1 / _JULIA_GRID: one within 1e-9 of a
# half-integer is a tie, as mirror-symmetric root sets put it on one and the
# solver's last bit must not decide them
_JULIA_GRID = 500_000_000


def _julia_shifts(t: np.ndarray) -> np.ndarray:
    """nint(t) half away from zero, with |t - (h + 1/2)| < 1e-9 taken as an
    exact tie: the nearest multiple of 1 / _JULIA_GRID lies on h + 1/2 just
    there, and elsewhere rounds as t does."""
    grid = np.rint(t * _JULIA_GRID).astype(np.int64)
    return _nint_ratio(grid, _JULIA_GRID, "away")


def julia_vs_com_report(config: LatticeConfig) -> dict:
    """Fraction of database records whose true-Julia shift differs from the
    center-of-mass shift, both rounded half away from zero.  The com shift
    is exact.  A Julia zero t with |t - (h + 1/2)| < 1e-9 for an integer h
    is rounded as the exact tie h + 1/2: mirror-symmetric root sets put it
    there, and a float zero may land on either side.  Deterministic for a
    fixed config.

    Per index block the zeros come from one batched Newton
    (`julia._julia_zeros`) from `minimize_theta0`'s start
    (`julia._julia_start`, the rows' hyperbolic centroids); a row whose line
    search stalls is solved again by `minimize_theta0`."""
    points = lattice_points(config.r2, config.region)
    k = config.kgon
    xs, ys = np.array(points, dtype=np.int64).T
    m = np.full(k, 2.0)  # every root is a pair
    total = differ = 0
    for idx in _index_chunks(len(points), k, 0, len(points)):
        X, Y = xs[idx], ys[idx]
        m_com = _nint_ratio(X.sum(axis=1), k, "away")
        Xf, Y2 = X.astype(np.float64), Y.astype(np.float64) ** 2
        zx, _, stalled = _julia_zeros(Xf, Y2, m, *_julia_start(Xf, Y2))
        for i in np.flatnonzero(stalled):
            pts = tuple(map(UhpPoint, X[i].tolist(), Y[i].tolist()))
            zx[i] = minimize_theta0(from_upper_roots(pts),
                                    roots=UpperRootSet(upper=pts, real=())).zero.t
        total += len(idx)
        differ += int((_julia_shifts(zx) != m_com).sum())
    return {
        "k": config.kgon,
        "r2": config.r2,
        "region": config.region,
        "tie_convention": TIE_NAMES["away"],
        "total": total,
        "differ": differ,
        "fraction": differ / total if total else 0.0,
    }
