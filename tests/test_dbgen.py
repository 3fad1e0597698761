import hashlib
import itertools
import json
import math
import multiprocessing
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from formred import (CompareStats, LatticeConfig, build_record,
                     center_of_mass, centroid_from_factors, compare_stats,
                     enumerate_ngons, from_upper_roots, gauss_estimate,
                     generate_records, height, hyperbolic_centroid,
                     julia_vs_com_report, lattice_points, max_distance,
                     minimize_theta0, psi, read_db, shift, stats_json_dict,
                     write_db, UhpPoint)
from formred import dbgen
from formred.dbgen import (_CHUNK_ROWS, TIE_NAMES, _centers, _expand_forms,
                           _index_chunks, _int64_safe, _join_sums,
                           _point_sums, _prefix_tails, _range_tasks,
                           _julia_shifts, _shift_heights, _tail_table)
from formred.hyper import _inverse_y_weights, _nint_ratio
from oracles import (compare_record, index_chunks_reference,
                     inverse_y_weights, julia_report_oracle,
                     maxdist_keys_reference, record_line)


def brute_count(r2):
    n = 0
    for x in range(-r2, r2 + 1):
        for y in range(1, r2 + 1):
            if 1 < x * x + y * y <= r2 * r2:
                n += 1
    return n


def test_lattice_points_counts():
    sizes = {4: 19, 5: 34, 7: 66, 10: 147, 20: 607}
    for r2, n in sizes.items():
        pts = lattice_points(r2)
        assert len(pts) == n
        assert len(pts) == brute_count(r2)
        assert pts == sorted(pts)
    for r2 in range(2, 21):
        assert len(lattice_points(r2)) == brute_count(r2)


def test_lattice_points_small():
    assert lattice_points(2) == [(-1, 1), (0, 2), (1, 1)]
    assert (0, 1) not in lattice_points(20)  # z = i excluded
    pos = lattice_points(7, region="positive-re")
    assert all(x >= 1 for x, _ in pos)
    assert len(pos) == 30


def test_gauss_estimate():
    assert gauss_estimate(1, 20) == pytest.approx(math.pi * 399)
    assert gauss_estimate(3, 3) == 0.0
    assert gauss_estimate(0, 1) == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        gauss_estimate(3, 2)


def test_enumerate_ngons_counts_and_order():
    pts = lattice_points(4)
    combos = list(enumerate_ngons(pts, 3))
    assert len(combos) == math.comb(19, 3)
    assert combos == sorted(combos)
    assert all(tuple(sorted(c)) == c for c in combos)
    assert list(enumerate_ngons([(0, 2), (1, 1), (2, 2)], 3)) == \
        [((0, 2), (1, 1), (2, 2))]


def test_enumerate_ngons_partitioning():
    pts = lattice_points(3)
    full = list(enumerate_ngons(pts, 4))
    merged = []
    for lo, hi in ((0, 2), (2, 5), (5, len(pts))):
        merged.extend(enumerate_ngons(pts, 4, first_range=(lo, hi)))
    assert merged == full


def _same_blocks(got, want):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64
        assert a.shape == b.shape and np.array_equal(a, b)


def _split_blocks(n, k, lo, hi, rows=_CHUNK_ROWS, tails=None):
    # the (prefix, start) pairs joined back into whole index rows, in blocks
    # of `rows`; the tail table defaults to the one of the same `rows`
    if tails is None:
        tails = _tail_table(n, k, rows)
    combos = []
    for prefix, start in _prefix_tails(n, k, lo, hi, tails):
        assert len(prefix) == k - tails.shape[1]
        assert 0 <= start <= len(tails)
        combos += [prefix + tuple(tail) for tail in tails[start:].tolist()]
    full = np.array(combos, dtype=np.int64).reshape(-1, k)
    for a in range(0, len(full), rows):
        yield full[a:a + rows]


def test_index_chunks_match_reference():
    # rows 1, 3 and 7 split blocks mid-prefix and, with the default, use
    # every tail width j = 0 .. k-1 (the largest j <= k-1 whose subset
    # tables up to j have at most `rows` rows); the scans' blocks are
    # smaller than the default table, so one prefix's tails span several
    widths, spanned = set(), False
    for n in range(10):
        for k in range(1, n + 2):
            table = _tail_table(n, k)
            for rows in (1, 3, 7, _CHUNK_ROWS):
                j = 0
                while j < k - 1 and math.comb(n, j + 1) <= rows:
                    j += 1
                if k <= n:
                    widths.add(j)
                    assert _tail_table(n, k, rows).shape == (math.comb(n, j), j)
                    # the first prefix's tails: the last comb(n - 1, j)
                    spanned |= math.comb(n - 1, table.shape[1]) > rows
                last = max(n - k + 1, 0)
                for lo, hi in ((0, 0), (2, 2), (3, 1), (0, 1), (1, last),
                               (0, last), (last // 2, n + 4), (n, n + 1)):
                    want = list(index_chunks_reference(n, k, lo, hi, rows))
                    _same_blocks(_index_chunks(n, k, lo, hi, rows), want)
                    _same_blocks(_split_blocks(n, k, lo, hi, rows), want)
                    _same_blocks(_split_blocks(n, k, lo, hi, rows, table), want)
    assert widths == set(range(9)) and spanned


def test_width_zero_tail_sums():
    # at j = 0 every tail is empty: prod y = 1 and every sum is 0
    xs, ys = np.array([3, -1, 4]), np.array([1, 5, 9])
    for dtype in (np.int64, object, np.float64):
        tails = _tail_table(3, 1)
        assert tails.shape == (1, 0)
        sums = _point_sums(xs.astype(dtype), ys.astype(dtype), tails)
        assert [list(col) for col in sums] == [[0], [0], [1], [0], [0], [0]]
        head = _point_sums(xs.astype(dtype), ys.astype(dtype),
                           np.array([[0], [2]]))
        for a, b in zip(_join_sums(head, [np.repeat(c, 2) for c in sums]),
                        head):
            assert list(a) == list(b)


def test_index_chunks_concatenate_over_range_tasks():
    for n, k in ((12, 3), (20, 4), (9, 9), (5, 7)):
        full = np.array(list(itertools.combinations(range(n), k)),
                        dtype=np.int64).reshape(-1, k)
        assert len(_range_tasks(range(n), k, 1)) == 1
        for workers in (1, 3):
            tasks = _range_tasks(range(n), k, workers)
            for chunks in (_index_chunks, _split_blocks):
                blocks = [b for *_, lo, hi in tasks
                          for b in chunks(n, k, lo, hi, rows=7)]
                got = (np.concatenate(blocks) if blocks
                       else np.empty((0, k), dtype=np.int64))
                assert np.array_equal(got, full)


def _up_2dp(num, den):
    # the 'up-2dp' convention written out on the double nearest num/den
    return math.floor(round(float(num) / float(den), 2) + 0.5)


def _up_2dp_exact(num, den):
    # the same in exact arithmetic: cents and then units, both half up
    half = Fraction(1, 2)
    cents = math.floor(Fraction(100 * num, den) + half)
    return math.floor(Fraction(cents, 100) + half)


def test_up_2dp_shifts_integer_and_double_rows():
    ratios = [
        (1, 8), (3, 8), (-5, 8), (107, 40), (201, 200),  # exact half cents
        (99, 200), (-101, 200), (-99, 200),  # h + 0.495: the double decides
        (5, 2), (-7, 2), (0, 3), (7, 3), (-22, 7), (1, 1), (-1, 1)]
    for c in range(-400, 400, 37):  # near half cents, den about 10^6
        for den in (999_983, 1_000_000, 1_048_576):
            tie = (2 * c + 1) * den
            ratios += [(tie // 200 + d, den) for d in (-1, 0, 1)]
    for dtype in (np.int64, object):
        num = np.array([p for p, _ in ratios], dtype=dtype)
        den = np.array([q for _, q in ratios], dtype=dtype)
        got = _nint_ratio(num, den, "up-2dp")
        assert got.dtype == num.dtype
        assert list(got) == [_up_2dp(p, q) for p, q in ratios]
        got = _nint_ratio(num, 7, "up-2dp")
        assert got.dtype == num.dtype
        assert list(got) == [_up_2dp(p, 7) for p, _ in ratios]
    assert [_nint_ratio(p, q, "up-2dp") for p, q in ratios] == \
        [_up_2dp(p, q) for p, q in ratios]
    # object rows past 200 |num| < 2^53 round the exact ratio, not the double
    big = [(2 ** 53 // 200 + d, q) for d in (-1, 0, 1, 2) for q in (1, 2, 3, 8)]
    big += [(-(2 ** 60) - 5, 3), (2 ** 62 + 1, 10 ** 5), (3 * 2 ** 55, 2 ** 54)]
    got = _nint_ratio(np.array([p for p, _ in big], dtype=object),
                      np.array([q for _, q in big], dtype=object), "up-2dp")
    assert got.dtype == object
    assert list(got) == [_up_2dp_exact(p, q) for p, q in big]


def test_julia_shifts_tie_band():
    # a zero within 1e-9 of h + 1/2 rounds as the tie, away from zero
    for h in (0, 1, 7, 63):
        for sign in (1, -1):
            near = [h + 0.5 + d for d in (-0.9e-9, 0.0, 0.9e-9)]
            outside = [h + 0.5 - 1.1e-9, h + 0.5 + 1.1e-9]
            t = sign * np.array(near + outside)
            got = _julia_shifts(t)
            assert got.dtype == np.int64
            assert list(got) == [sign * (h + 1)] * 3 + [sign * h,
                                                        sign * (h + 1)]


def test_unknown_conventions_rejected_before_the_scan(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("scan started")

    monkeypatch.setattr(dbgen, "_index_chunks", unreachable)
    monkeypatch.setattr(dbgen, "_prefix_tails", unreachable)
    monkeypatch.setattr(dbgen, "_fan_out", unreachable)
    for cfg in (LatticeConfig(r2=4, kgon=3), LatticeConfig(r2=2, kgon=9)):
        for workers in (1, 2):
            with pytest.raises(ValueError, match="bogus"):
                compare_stats(cfg, tie="bogus", workers=workers)
            for kwargs in ({"metric": "bogus"}, {"scan_u": "bogus"},
                           {"scope": "bogus"}):
                with pytest.raises(ValueError, match="bogus"):
                    max_distance(cfg, workers=workers, **kwargs)


def test_build_record_examples():
    rec = build_record([(2, 19), (19, 1), (1, 19)])  # sorting is canonical
    assert rec.roots == ((1, 19), (2, 19), (19, 1))
    assert rec.coeffs == (1, -44, 1325, -32280, 480964, -5809376, 47831060)
    assert rec.com == pytest.approx((22 / 3, 13.0))
    assert rec.hyp[0] == pytest.approx(52 / 3)
    assert rec.hyp[1] == pytest.approx(math.sqrt(3887 / 63))

    rec = build_record([(0, 2)])
    assert rec.coeffs == (1, 0, 4)

    rec = build_record([(1, 5), (1, 6), (2, 6), (3, 3), (6, 1)])
    assert rec.coeffs[-1] == 25_627_680


def test_max_distance_trivial_and_oracle():
    cfg = LatticeConfig(r2=2, kgon=3)
    rec = max_distance(cfg, scope="all")  # the whole db is one triangle
    assert rec.roots == ((-1, 1), (0, 2), (1, 1))

    cfg = LatticeConfig(r2=4, kgon=3)
    rec_e = max_distance(cfg, metric="euclidean", scope="all",
                         scan_u="definition")
    # brute force oracle over all triangles
    best = None
    for roots in itertools.combinations(lattice_points(4), 3):
        r = build_record(roots)
        d = math.hypot(r.com[0] - r.hyp[0], r.com[1] - r.hyp[1])
        if best is None or d > best[0]:
            best = (d, r.roots)
    assert rec_e.roots == best[1]


def test_max_distance_scan_u_matches_definition_oracle():
    cfg = LatticeConfig(r2=4, kgon=3)
    rec = max_distance(cfg, metric="hyperbolic", scope="all", scan_u="definition")
    best = None
    for roots in itertools.combinations(lattice_points(4), 3):
        r = build_record(roots)
        d2 = (r.com[0] - r.hyp[0]) ** 2 + (r.com[1] - r.hyp[1]) ** 2
        d = d2 / (2 * r.com[1] * r.hyp[1])
        if best is None or d > best[0] + 1e-15:
            best = (d, r.roots)
    assert rec.roots == best[1]


def test_max_distance_parallel_merge():
    cfg = LatticeConfig(r2=5, kgon=3)
    a = max_distance(cfg, metric="euclidean", scope="all", workers=1)
    b = max_distance(cfg, metric="euclidean", scope="all", workers=3)
    assert a == b


def test_compare_stats_single_triangle():
    cfg = LatticeConfig(r2=2, kgon=3)
    st = compare_stats(cfg)
    # single triangle, both shifts are 0: hand evaluation says "same"
    m_com, m_hyp, h_com, h_hyp = compare_record(((-1, 1), (0, 2), (1, 1)))
    assert (m_com, m_hyp) == (0, 0) and h_com == h_hyp
    assert st == CompareStats(total=1, hyperbolic_wins=0, julia_wins=0, same=1)


def test_compare_stats_block_engine_matches_exact_reference():
    # r2=3 k=4 runs on int64 blocks, r2=3 k=8 on Python-int blocks
    for r2, k in ((3, 4), (3, 8)):
        assert _int64_safe(r2, k) == (k == 4)
        cfg = LatticeConfig(r2=r2, kgon=k)
        for tie in TIE_NAMES:
            rows = [compare_record(roots, tie)[2:]
                    for roots in enumerate_ngons(lattice_points(r2), k)]
            hyp = sum(h_hyp < h_com for h_com, h_hyp in rows)
            julia = sum(h_com < h_hyp for h_com, h_hyp in rows)
            assert compare_stats(cfg, tie) == \
                CompareStats(len(rows), hyp, julia, len(rows) - hyp - julia)
        assert compare_stats(cfg).total == math.comb(10, k)
    # a 4-gon whose shifted heights pass 2**63 stays exact on Python-int blocks
    roots = ((-700, 3), (-20, 900), (300, 800), (1000, 1))
    m_com, m_hyp, h_com, h_hyp = compare_record(roots)
    X = np.array([[x for x, _ in roots]] * 2, dtype=object)
    Y = np.array([[y for _, y in roots]] * 2, dtype=object)
    heights = _shift_heights(_expand_forms(X, Y), np.array([m_com, m_hyp]))
    assert list(heights) == [h_com, h_hyp] and min(heights) > 2 ** 63


def test_weight_kernel_on_blocks(rng):
    # one-point rows, and (object only) products past 2^63
    for k, span, dtypes in ((1, 20, (np.int64, object, np.float64)),
                            (3, 20, (np.int64, object, np.float64)),
                            (5, 20, (np.int64, object, np.float64)),
                            (5, 10 ** 6, (object,))):
        rows = [[int(v) for v in rng.integers(1, span + 1, k)] for _ in range(30)]
        want = [inverse_y_weights(row) for row in rows]
        for row, w in zip(rows, want):
            assert _inverse_y_weights(row) == (w, sum(w))
        for dtype in dtypes:
            cols = [np.array(c, dtype=dtype) for c in zip(*rows)]
            W, s = _inverse_y_weights(cols)
            assert len(W) == k
            for i, col in enumerate(W):
                assert list(np.broadcast_to(col, (len(rows),))) == \
                    [w[i] for w in want]
            assert list(np.broadcast_to(s, (len(rows),))) == \
                [sum(w) for w in want]
    assert max(sum(w) for w in want) > 2 ** 63
    assert _inverse_y_weights([7]) == ([1], 1)
    ys = [Fraction(3, 2), Fraction(5, 4), 2, Fraction(7, 3)]
    assert _inverse_y_weights(ys) == (inverse_y_weights(ys),
                                      sum(inverse_y_weights(ys)))


def test_weight_kernel_on_fraction_heights():
    # exact-square discriminants give Fraction heights d_i / 2 = 1, 3, 2, 4
    cent = centroid_from_factors((2, 0, -4, 6), (2, 9, 8, 25))
    ys = [Fraction(1), Fraction(3), Fraction(2), Fraction(4)]
    assert cent.t == Fraction(-1 * 24 - 0 * 8 + 2 * 12 - 3 * 6, 50)
    assert cent.t == psi([Fraction(-1), 0, Fraction(2), Fraction(-3)], ys)


def test_block_kernels_match_scalar_route(rng):
    shifts = [-9, -1, 0, 1, 4]
    for k in (1, 2, 5):
        sets = [random_roots(rng, k) for _ in range(25)]
        ms = np.array([shifts[i % len(shifts)] for i in range(len(sets))])
        forms = [from_upper_roots([UhpPoint(x, y) for x, y in roots])
                 for roots in sets]
        # each row's points, and its index columns into them
        idx = np.arange(len(sets) * k).reshape(len(sets), k)
        for dtype in (np.int64, object):
            xs = np.array([x for roots in sets for x, _ in roots], dtype=dtype)
            ys = np.array([y for roots in sets for _, y in roots], dtype=dtype)
            X, Y = xs[idx], ys[idx]
            coeffs = _expand_forms(X, Y)
            assert coeffs[0] == 1 and len(coeffs) == 2 * k + 1
            for j, col in enumerate(coeffs[1:], start=1):
                assert col.dtype == dtype
                assert list(col) == [f.coeffs[j] for f in forms]
            for m in (ms, -ms):
                got = _shift_heights(coeffs, m)
                assert list(got) == [height(shift(f, int(v)))
                                     for f, v in zip(forms, m)]
            # a head's quadratics times its tail's form, at every split
            for a in range(k + 1):
                tail = _expand_forms(X[:, a:], Y[:, a:])
                split = _expand_forms(X[:, :a], Y[:, :a], tail)
                assert split[0] == 1 and len(split) == 2 * k + 1
                for want, got in zip(coeffs[1:], split[1:]):
                    assert got.dtype == dtype and list(got) == list(want)
        xs, ys = xs.astype(np.float64), ys.astype(np.float64)
        for a in range(k + 1):
            sums = _join_sums(_point_sums(xs, ys, idx[:, :a]),
                              _point_sums(xs, ys, idx[:, a:]))
            com_t, com_u, hyp_t, hyp_u = _centers(sums, k)
            _, _, _, mean_y = _centers(sums, k, "mean-y")
            for i, roots in enumerate(sets):
                pts = [UhpPoint(x, y) for x, y in roots]
                com = center_of_mass(pts)
                hyp = hyperbolic_centroid(pts)
                ys_i = [y for _, y in roots]
                assert (com_t[i], com_u[i]) == (float(com.t), float(com.u))
                assert hyp_t[i] == float(hyp.t)
                assert hyp_u[i] == pytest.approx(hyp.u, rel=1e-12)
                assert mean_y[i] == float(psi(ys_i, ys_i))


@pytest.mark.parametrize("r2, k, scope", [
    (20, 3, "positive-re"), (7, 5, "positive-re"), (5, 4, "all"),
    (4, 6, "all")])
def test_maxdist_keys_match_whole_row_reference(monkeypatch, r2, k, scope):
    # the keys the engine scores, from prefix and tail sums, equal the
    # whole-row route's bit for bit (every intermediate is an integer
    # below 2^53 in float64)
    keys = []

    def recorded(*args):
        keys.append(distance_key(*args))
        return keys[-1]

    distance_key = dbgen._distance_key
    monkeypatch.setattr(dbgen, "_distance_key", recorded)
    pts = lattice_points(r2)
    if scope == "positive-re":
        pts = [p for p in pts if p[0] >= 1]
    assert k * r2 ** (k + 1) < 2 ** 53
    xs, ys = np.array(pts, dtype=np.float64).T
    idx = np.concatenate(list(index_chunks_reference(len(pts), k, 0, len(pts),
                                                     _CHUNK_ROWS)))
    X, Y = xs[idx], ys[idx]
    for scan_u in dbgen.MAXDIST_SCAN_US:
        for metric in dbgen.MAXDIST_METRICS:
            keys.clear()
            rec = max_distance(LatticeConfig(r2=r2, kgon=k), metric, scope,
                               scan_u)
            want = maxdist_keys_reference(X, Y, metric, scan_u)
            assert np.array_equal(np.concatenate(keys), want)
            best = int(np.argmax(want))
            assert rec.roots == tuple(pts[i] for i in idx[best])


def random_roots(rng, k, span=30):
    roots = set()
    while len(roots) < k:
        roots.add((int(rng.integers(-span, span + 1)),
                   int(rng.integers(1, span + 1))))
    return sorted(roots)


def test_compare_stats_workers_deterministic():
    cfg = LatticeConfig(r2=4, kgon=3)
    assert compare_stats(cfg, workers=1) == compare_stats(cfg, workers=3)


ENGINES = {
    "gen": lambda cfg, workers: list(generate_records(cfg, workers=workers)),
    "compare": lambda cfg, workers: compare_stats(cfg, workers=workers),
    "maxdist": lambda cfg, workers: max_distance(cfg, workers=workers),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_workers_clamped_to_cpu_count(engine, monkeypatch):
    # a pool forks all its workers at once, so the engines cut the count to
    # the CPUs; the fake pool records it and runs the tasks in this process
    pools, splits = [], []

    class FakePool:
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    def recorded(points, k, workers, *args):
        splits.append(workers)
        return _range_tasks(points, k, workers, *args)

    monkeypatch.setattr(dbgen, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(dbgen, "_range_tasks", recorded)
    cfg = LatticeConfig(r2=4, kgon=3)
    run = ENGINES[engine]
    expected = run(cfg, 1)
    monkeypatch.setattr(dbgen.os, "cpu_count", lambda: 4)
    for given, kept in ((3, 3), (4, 4), (5, 4), (100_000, 4)):
        assert run(cfg, given) == expected
        assert pools[-1] == splits[-1] == kept
    monkeypatch.setattr(dbgen.os, "cpu_count", lambda: None)
    assert run(cfg, 8) == expected
    assert len(pools) == 4 and splits[-1] == 1


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no CPU affinity calls on this platform")
def test_start_apart_starts_workers_on_distinct_cpus(monkeypatch):
    # worker i is first moved to the i-th allowed CPU alone, then allowed
    # every CPU again; the counter numbers the workers
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    masks = []
    setaffinity = os.sched_setaffinity

    def recorded(pid, mask):
        masks.append(set(mask))
        setaffinity(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", recorded)
    counter = multiprocessing.Value("i", 0)
    for i in range(len(cpus) + 1):
        dbgen._start_apart(counter)
        assert masks[-2:] == [{cpus[i % len(cpus)]}, allowed]
        assert os.sched_getaffinity(0) == allowed
    assert counter.value == len(cpus) + 1


def test_scan_results_do_not_depend_on_block_size(monkeypatch):
    # blocks of 7 rows split prefixes' tails, _CHUNK_ROWS holds each
    # database here in one block; r2=3 k=8 compares on Python-int blocks.
    # r2=5 k=4 (three default blocks) would take seconds in 7-row blocks
    compare_cases = [(LatticeConfig(r2=r2, kgon=k), tie)
                     for r2, k in ((4, 3), (4, 5), (3, 8), (5, 4))
                     for tie in TIE_NAMES]
    small = len(compare_cases) - len(TIE_NAMES)
    maxdist_cases = [(LatticeConfig(r2=r2, kgon=k), args)
                     for r2, k in ((4, 5), (5, 3))
                     for args in itertools.product(dbgen.MAXDIST_METRICS,
                                                   dbgen.MAXDIST_SCOPES,
                                                   dbgen.MAXDIST_SCAN_US)]

    def scan(rows, compared=len(compare_cases)):
        monkeypatch.setattr(dbgen, "_SCAN_ROWS", rows)
        return ([compare_stats(cfg, tie)
                 for cfg, tie in compare_cases[:compared]],
                [max_distance(cfg, *args) for cfg, args in maxdist_cases])

    default = dbgen._SCAN_ROWS
    whole = scan(_CHUNK_ROWS)
    assert scan(default) == whole
    assert scan(7, small) == (whole[0][:small], whole[1])
    # when every key ties, the lexicographically first n-gon must win
    monkeypatch.setattr(dbgen, "_distance_key",
                        lambda metric, com_t, *_: np.zeros_like(com_t))
    for rows in (7, default, _CHUNK_ROWS):
        monkeypatch.setattr(dbgen, "_SCAN_ROWS", rows)
        for cfg, args in maxdist_cases:
            points = lattice_points(cfg.r2, cfg.region)
            if args[1] == "positive-re":
                points = [p for p in points if p[0] >= 1]
            assert max_distance(cfg, *args).roots == tuple(points[:cfg.kgon])


def test_scans_with_multi_point_prefixes(monkeypatch):
    # tail tables of at most 20 rows leave prefixes of 2 to 4 points (the
    # r2=7 k=5 whole region has 2 with the default table), some of them with
    # no tails, and of 7 at r2=3 k=8, which compares on Python ints
    compare_cases = [(cfg, tie)
                     for cfg in (LatticeConfig(r2=4, kgon=3),
                                 LatticeConfig(r2=4, kgon=5,
                                               region="positive-re"),
                                 LatticeConfig(r2=3, kgon=8))
                     for tie in TIE_NAMES]
    maxdist_cases = [(LatticeConfig(r2=4, kgon=k), args)
                     for k in (3, 4)
                     for args in itertools.product(dbgen.MAXDIST_METRICS,
                                                   dbgen.MAXDIST_SCOPES,
                                                   dbgen.MAXDIST_SCAN_US)]

    def scan():
        return ([compare_stats(cfg, tie) for cfg, tie in compare_cases],
                [max_distance(cfg, *args) for cfg, args in maxdist_cases],
                list(generate_records(LatticeConfig(r2=3, kgon=8))))

    want = scan()
    tail_table = dbgen._tail_table
    widths = set()

    def capped(n, k, rows=_CHUNK_ROWS):
        table = tail_table(n, k, min(rows, 20))
        widths.add(k - table.shape[1])
        return table

    monkeypatch.setattr(dbgen, "_tail_table", capped)
    assert scan() == want
    assert widths == {2, 3, 4, 7}


@st.composite
def small_databases(draw):
    r2 = draw(st.integers(2, 4))
    region = draw(st.sampled_from(dbgen.REGIONS))
    n = len(lattice_points(r2, region))
    # at most comb(19, 4) = 3 876 rows, and one k past the point count
    k = draw(st.integers(1, min(n + 1, 4 if r2 == 4 else 6)))
    return LatticeConfig(r2=r2, kgon=k, region=region)


@settings(max_examples=30, deadline=None)
@given(cfg=small_databases(), tie=st.sampled_from(list(TIE_NAMES)))
def test_compare_stats_match_per_row_oracle(cfg, tie):
    # compare_record shifts by round_tie and shifts the form by the binomial
    # theorem (binomial_shift)
    rows = [compare_record(roots, tie)[2:] for roots in
            itertools.combinations(lattice_points(cfg.r2, cfg.region),
                                   cfg.kgon)]
    hyp = sum(h_hyp < h_com for h_com, h_hyp in rows)
    julia = sum(h_com < h_hyp for h_com, h_hyp in rows)
    assert compare_stats(cfg, tie) == \
        CompareStats(len(rows), hyp, julia, len(rows) - hyp - julia)


@settings(max_examples=15, deadline=None)
@given(cfg=small_databases(), metric=st.sampled_from(dbgen.MAXDIST_METRICS),
       scope=st.sampled_from(dbgen.MAXDIST_SCOPES),
       scan_u=st.sampled_from(dbgen.MAXDIST_SCAN_US))
def test_max_distance_one_range_matches_two_workers(cfg, metric, scope,
                                                     scan_u):
    # workers=1 scans one range, workers=2 splits it into 32
    def scan(workers):
        try:
            return max_distance(cfg, metric, scope, scan_u, workers=workers)
        except ValueError as exc:  # k larger than the scope's point set
            return str(exc)

    assert scan(1) == scan(2)


def test_compare_record_against_library_route():
    roots = ((1, 5), (1, 6), (2, 6), (3, 3), (6, 1))
    m_com, m_hyp, h_com, h_hyp = compare_record(roots)
    f = from_upper_roots([UhpPoint(x, y) for x, y in roots])
    assert (m_com, m_hyp) == (3, 4)
    assert h_com == height(shift(f, 3)) == 3_862_800
    assert h_hyp == height(shift(f, 4)) == 3_060_000


def test_stats_json_schema():
    cfg = LatticeConfig(r2=4, kgon=5)
    st = CompareStats(total=11628, hyperbolic_wins=2367, julia_wins=797,
                      same=8464)
    obj = stats_json_dict(cfg, st)
    assert list(obj) == ["total", "hyperbolic", "julia", "same",
                         "tie_convention", "region", "r2", "k"]
    assert obj["region"] == "halfdisc-exclude-i"
    assert obj["tie_convention"] == "half-up-after-2dp-round"


def test_db_round_trip(tmp_path):
    path = tmp_path / "db.jsonl"
    write_db([], path)
    assert read_db(path) == []

    recs = [build_record(r) for r in enumerate_ngons(lattice_points(2), 2)]
    n = write_db(recs, path)
    assert n == len(recs)
    back = read_db(path)
    assert len(back) == len(recs)
    for a, b in zip(recs, back):
        assert a.roots == b.roots
        assert a.coeffs == b.coeffs
        assert b.com == tuple(round(v, 6) for v in a.com)
        assert b.hyp == tuple(round(v, 6) for v in a.hyp)
    # persisted coefficients regenerate from the roots exactly
    for b in back:
        f = from_upper_roots([UhpPoint(x, y) for x, y in b.roots])
        assert f.coeffs == b.coeffs

    line = path.read_text().splitlines()[0]
    obj = json.loads(line)
    assert list(obj) == ["roots", "coeffs", "com", "hyp"]
    assert all(isinstance(c, str) for c in obj["coeffs"])


def test_db_corrupt_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = build_record([(0, 2), (1, 1)])
    from formred.dbgen import _record_line
    good = _record_line(rec)
    path.write_text(good + "\n" + "{not json}\n")
    with pytest.raises(ValueError, match="line 2"):
        read_db(path)


@pytest.mark.parametrize("field, value", [
    ("com", [0.0]),                  # too short: was a bare IndexError
    ("hyp", [0.0, 1.0, 2.0]),        # too long: was accepted
    ("com", {"t": 0.0, "u": 1.0}),
    ("coeffs", ["1", 1.5, "4"]),     # a number: was truncated to 1
    ("coeffs", ["1", 0, "4"]),
    ("coeffs", ["1", "1.5", "4"]),
    ("coeffs", ["1", "+0", "4"]),
    ("coeffs", ["1", "0-", "4"]),
    ("coeffs", "144"),
    ("coeffs", []),
    ("roots", [[0.9, 2.7]]),         # floats
    ("roots", [["3", 2]]),           # a string
    ("coeffs", ["1", "\u0664", "4"]),  # an Arabic-Indic 4: was read as 4
    ("coeffs", ["1", "0"]),          # 2 coefficients for 1 root: was accepted
    ("coeffs", ["1", "0", "4", "0", "0"]),
    ("roots", []),                   # no roots: was accepted
    ("com", ["0.5", 2.0]),           # a string: was read as 0.5
    ("hyp", [True, 2.0]),            # a boolean: was read as 1.0
    ("com", [float("nan"), 2.0]),    # NaN: was accepted
    ("hyp", [0.0, float("inf")]),
    ("com", [10 ** 400, 2.0]),       # no float: was an OverflowError
])
def test_db_malformed_fields_name_the_line(tmp_path, field, value):
    good = json.loads(dbgen._record_line(build_record([(0, 2)])))
    bad = dict(good, **{field: value})
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValueError, match="line 2"):
        read_db(path)
    path.write_text(json.dumps(good) + "\n")
    assert read_db(path) == [build_record([(0, 2)])]


def test_db_file_bytes_pinned(tmp_path):
    # the JSONL bytes are a contract; this pins the r2=4 pentagon database
    # and r2=3 k=8, which generate_records builds on object blocks
    path = tmp_path / "db.jsonl"
    for r2, k, count, digest in (
            (4, 5, 11628,
             "ffd1aeb001ba2bdd8431fe9243687e07361cb592818cf2408e61e22bb8e142ad"),
            (3, 8, 45,
             "1a3f7b7f220ed2f27cae9054c9fc024f53d6d7a5ca5f7f078b6fdd133ba0332a")):
        assert write_db(generate_records(LatticeConfig(r2=r2, kgon=k)),
                        path) == count
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_record_line_matches_json_oracle():
    recs = list(generate_records(LatticeConfig(r2=4, kgon=5)))
    # coefficients past 2^63, and negative ones
    recs += [build_record([(10 ** 6, 10 ** 6), (-3 * 10 ** 6, 1),
                           (7, 2 * 10 ** 6)]),
             build_record([(-5, 1), (40, 3)])]
    assert max(recs[-2].coeffs) > 2 ** 63 and min(recs[-1].coeffs) < 0
    for rec in recs:
        assert dbgen._record_line(rec) == record_line(rec)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("r2, k", [(3, 4), (4, 3), (4, 5), (3, 8)])
def test_generate_records_match_build_record(r2, k, workers):
    # 3/8 runs on object blocks, the others on int64 ones
    assert _int64_safe(r2, k) == ((r2, k) != (3, 8))
    got = list(generate_records(LatticeConfig(r2=r2, kgon=k), workers=workers))
    want = [build_record(r) for r in enumerate_ngons(lattice_points(r2), k)]
    assert got == want
    for rec in got:
        assert type(rec.roots) is tuple and type(rec.coeffs) is tuple
        assert all(type(r) is tuple and type(r[0]) is int and type(r[1]) is int
                   for r in rec.roots)
        assert all(type(c) is int for c in rec.coeffs)
        assert all(type(v) is float for v in rec.com + rec.hyp)


def test_generate_records_workers_and_order(tmp_path):
    cfg = LatticeConfig(r2=3, kgon=3)
    seq1 = list(generate_records(cfg))
    seq2 = list(generate_records(cfg, workers=2))
    assert seq1 == seq2
    assert len(seq1) == math.comb(10, 3)


def test_config_validation():
    with pytest.raises(ValueError):
        LatticeConfig(r2=1, kgon=3)
    with pytest.raises(ValueError):
        LatticeConfig(r2=65, kgon=3)
    with pytest.raises(ValueError):
        LatticeConfig(r2=5, kgon=0)
    with pytest.raises(ValueError):
        LatticeConfig(r2=5, kgon=3, region="nope")


def test_kgon_larger_than_point_set():
    cfg = LatticeConfig(r2=2, kgon=4)  # 3 lattice points
    assert compare_stats(cfg) == CompareStats(0, 0, 0, 0)
    assert compare_stats(cfg, workers=2) == CompareStats(0, 0, 0, 0)
    with pytest.raises(ValueError):
        max_distance(cfg, scope="all")
    for workers in (1, 2):
        with pytest.raises(ValueError):
            list(generate_records(cfg, workers=workers))
    with pytest.raises(ValueError):
        julia_vs_com_report(cfg)


def test_julia_vs_com_report_deterministic():
    cfg = LatticeConfig(r2=2, kgon=2)
    rep1 = julia_vs_com_report(cfg)
    rep2 = julia_vs_com_report(cfg)
    assert rep1 == rep2
    assert rep1["total"] == math.comb(3, 2)
    assert 0 <= rep1["fraction"] <= 1


@pytest.mark.parametrize("r2, k, ties", [(3, 4, 8), (4, 3, 0)])
def test_julia_vs_com_report_matches_oracle(r2, k, ties):
    # r2=3 k=4 has 8 mirror-symmetric quartics whose Julia zero lies on a
    # half-integer: the tie band must round them as exact ties
    differ, total, oracle_ties = julia_report_oracle(r2, k)
    assert oracle_ties == ties
    rep = julia_vs_com_report(LatticeConfig(r2=r2, kgon=k))
    assert (rep["differ"], rep["total"]) == (differ, total)
    assert rep["fraction"] == differ / total


def test_julia_vs_com_report_r2_5_quartics():
    # 322 of these zeros lie within 1e-9 of a half-integer, the nearest
    # non-tie 9.0e-5 away; without the tie band the count was 15 321
    rep = julia_vs_com_report(LatticeConfig(r2=5, kgon=4))
    assert (rep["differ"], rep["total"]) == (15_304, 46_376)


def test_julia_vs_com_report_stalled_rows_use_scalar_solver(monkeypatch):
    # rows the batched Newton gives up on are solved by minimize_theta0
    calls = []

    def all_stalled(X, Y2, m, x, y):
        nan = np.full(len(x), np.nan)
        return nan, nan, np.ones(len(x), dtype=bool)

    def counted(*args, **kwargs):
        calls.append(1)
        return minimize_theta0(*args, **kwargs)

    monkeypatch.setattr(dbgen, "_julia_zeros", all_stalled)
    monkeypatch.setattr(dbgen, "minimize_theta0", counted)
    rep = julia_vs_com_report(LatticeConfig(r2=3, kgon=4))
    assert (rep["differ"], rep["total"], len(calls)) == (26, 210, 210)
