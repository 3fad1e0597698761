"""Seeded inputs of the benchmark's workloads.

Every generator here draws from its own `random.Random(seed)`, so the same
seed gives the same inputs on every machine and Python version.  The library
is passed in as a module argument: it is imported from the checkout's `src/`
by `run.py`, never from this directory.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

WORKLOADS = ("pentagon-db", "mixed-forms", "db-scan", "db-records", "db-julia")

# The database experiments each db-* workload runs; every kind gets a
# workload whose time it shares with at most one other, so that a
# slowdown of any one engine moves that workload's figures.
DB_KINDS = {
    "db-scan": ("compare", "maxdist"),
    "db-records": ("gen", "read"),
    "db-julia": ("julia-report",),
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark scale."""

    # pentagon-db: one form drawn from each block of this many consecutive
    # rows of the r2=4, k=5 database (11 628 rows in canonical order)
    pentagon_block: int
    # mixed-forms: number of distinct forms in the pool
    mixed_forms: int
    # db-scan: (r2, k) of each experiment and the answers it must reproduce
    compare: tuple
    maxdist: tuple
    gen: tuple
    julia_report: tuple
    # db-records: read_db calls after each generate_records + write_db
    read_repeats: int


FULL = Sizes(
    pentagon_block=2,
    mixed_forms=1200,
    # (r2, k, (total, hyperbolic wins, julia wins, same))
    compare=((5, 5, (278_256, 81_034, 33_213, 164_009)),
             (10, 3, (518_665, 270_997, 75_993, 171_675))),
    # (r2, k, witness roots)
    maxdist=(20, 3, ((1, 19), (2, 19), (19, 1))),
    # (r2, k, rows)
    gen=(4, 5, 11_628),
    # (r2, k, differ, total)
    julia_report=(4, 5, 2_970, 11_628),
    # reading the r2=4 file back is about 8x faster than generating and
    # writing it; 8 reads give read_db about the same share of the round
    read_repeats=8,
)

# Seconds-long version for the self-test.  The compare buckets and the
# max-distance witness are the acceptance-suite references; the small
# Julia report is a regression pin of the library's own output.
TINY = Sizes(
    pentagon_block=400,
    mixed_forms=70,
    compare=((4, 5, (11_628, 2_367, 797, 8_464)),),
    maxdist=(7, 5, ((1, 5), (1, 6), (2, 6), (3, 6), (6, 1))),
    gen=(3, 4, 210),
    julia_report=(3, 4, 26, 210),
    read_repeats=2,
)


# Warm-up inputs: fixed, not drawn from the run's seed, so that set-up does
# the same work on every seed (one form per mixed class, including one
# repeated-root form; a fixed spread of database rows; small experiments).
WARM = Sizes(
    pentagon_block=500,
    mixed_forms=7,
    compare=((3, 3, None),),
    maxdist=(5, 3, None),
    gen=(3, 3, None),
    julia_report=(3, 3, None, None),
    read_repeats=1,
)


# ---------------------------------------------------------------------------
# pentagon-db
# ---------------------------------------------------------------------------

def pentagon_forms(fr, seed: int, sizes: Sizes) -> list:
    """Forms of the r2=4 pentagon database, one per block of consecutive
    rows, in seeded order.

    Neighbouring rows share four of their five roots, and root clustering
    decides which forms need the slow high-precision root path; drawing one
    row per block keeps that tail's share steady from seed to seed."""
    rng = random.Random(seed)
    combos = list(itertools.combinations(fr.lattice_points(4), 5))
    block = sizes.pentagon_block
    picked = [combos[rng.randrange(lo, min(lo + block, len(combos)))]
              for lo in range(0, len(combos), block)]
    rng.shuffle(picked)
    return [fr.from_upper_roots([fr.UhpPoint(x, y) for x, y in roots])
            for roots in picked]


# ---------------------------------------------------------------------------
# mixed-forms
# ---------------------------------------------------------------------------

def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _distinct_ratios(rng, n, num_max=9, den_max=4, nonzero=False):
    """n distinct reduced fractions a/b as (a, b), |a| <= num_max, 1 <= b."""
    seen, out = set(), []
    while len(out) < n:
        r = Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))
        if r in seen or (nonzero and r == 0):
            continue
        seen.add(r)
        out.append((r.numerator, r.denominator))
    return out


def _linear(a, b):
    """b*x - a*y: the real root a/b."""
    return [b, -a]


def _definite_quadratic(rng):
    while True:
        p, q, r = rng.randint(1, 5), rng.randint(-9, 9), rng.randint(1, 9)
        if q * q < 4 * p * r:
            return [p, q, r]


def _real_quadratic(rng):
    """A primitive quadratic with two distinct irrational real roots."""
    while True:
        p, q, r = rng.randint(1, 5), rng.randint(-9, 9), rng.randint(-9, 9)
        disc = q * q - 4 * p * r
        if disc > 0 and math.isqrt(disc) ** 2 != disc and \
                math.gcd(p, q, r) == 1:
            return (p, q, r)


def _totally_real(rng):
    """3 to 6 distinct real roots, non-monic: each factor is, with equal
    chance, a linear one (a nonzero rational root) or a real quadratic (a
    pair of irrational roots)."""
    target = rng.randint(3, 6)
    c, found, seen = [1], 0, set()
    while found < target:
        if target - found >= 2 and rng.random() < 0.5:
            factor, roots = _real_quadratic(rng), 2
        else:
            factor, roots = tuple(_linear(*_distinct_ratios(rng, 1, nonzero=True)[0])), 1
        if factor in seen:
            continue
        seen.add(factor)
        c = _mul(c, list(factor))
        found += roots
    return c


def _mixed_signature(rng):
    """1 to 3 rational roots times 1 or 2 definite quadratics."""
    c = [1]
    for a, b in _distinct_ratios(rng, rng.randint(1, 3)):
        c = _mul(c, _linear(a, b))
    for _ in range(rng.randint(1, 2)):
        c = _mul(c, _definite_quadratic(rng))
    return c


def _dense(rng):
    degree = rng.randint(3, 8)
    while True:
        c = [rng.randint(-50, 50) for _ in range(degree + 1)]
        if c[0] and c[-1]:
            return c


def _huge(rng):
    """20-digit coefficients."""
    degree = rng.randint(3, 6)
    return [rng.choice((-1, 1)) * rng.randrange(10**19, 10**20)
            for _ in range(degree + 1)]


def _zero_end(rng):
    """Exactly one of the end coefficients is zero (a root at 0 or infinity)."""
    degree = rng.randint(3, 7)
    while True:
        c = [rng.randint(-30, 30) for _ in range(degree + 1)]
        c[0 if rng.random() < 0.5 else -1] = 0
        if (c[0] or c[-1]) and any(c[1:-1]):
            return c


def _repeated_root(rng, shape):
    """Quintic l^2 * g: `shape` names the squared factor l, linear (L) or a
    definite quadratic (Q), then the factors of g in order, l or q."""
    c = _linear(*_distinct_ratios(rng, 1)[0]) if shape[0] == "L" \
        else _definite_quadratic(rng)
    c = _mul(c, c)
    for factor in shape[2:]:
        c = _mul(c, _definite_quadratic(rng) if factor == "q"
                 else _linear(*_distinct_ratios(rng, 1)[0]))
    return c


# The shapes that a fair coin at each choice gives (l linear or quadratic;
# then a quadratic or linear cofactor while a quadratic fits), in the
# proportions it gives them.  The j-th repeated-root form of a pool takes
# shape j mod 8, so that every seed has the same mix: the shapes differ in
# cost (L2lll the most), and with drawn shapes the ten-seed spread of
# op_ms_p99 on mixed-forms was 0.13.
_REPEATED_SHAPES = ("Q2l", "L2ql", "Q2l", "L2lq", "Q2l", "L2ql", "Q2l", "L2lll")


def _real_lt3(rng):
    """Two distinct real roots, one of them possibly at 0 or infinity."""
    (a1, b1), (a2, b2) = _distinct_ratios(rng, 2, nonzero=True)
    if rng.random() < 0.3:
        return _mul(_linear(a1, b1), [0, 1] if rng.random() < 0.5 else [1, 0])
    return _mul(_linear(a1, b1), _linear(a2, b2))


# Repeated-root forms make up 3 %: each takes 0.3 to 2.5 s through the
# escalation path, so a larger share would swamp the rest.  No record of
# real traffic gives the other shares, so those classes split the
# remaining 97 % equally.  The shares are fixed, so every seed and every
# prefix of the interleaved order has the same mix.
REPEATED_ROOT_SHARE = 0.03
REPEATED = "repeated-root"
_EQUAL_CLASSES = (
    ("totally-real", _totally_real),
    ("mixed-signature", _mixed_signature),
    ("dense", _dense),
    ("huge-coeffs", _huge),
    ("zero-end", _zero_end),
    ("real-lt3-roots", _real_lt3),
)
# (class, share of the pool, generators): the j-th form of a class comes
# from generator j mod their number.
MIXED_CLASSES = tuple(
    (name, (1 - REPEATED_ROOT_SHARE) / len(_EQUAL_CLASSES), (gen,))
    for name, gen in _EQUAL_CLASSES
) + ((REPEATED, REPEATED_ROOT_SHARE,
      tuple(partial(_repeated_root, shape=shape) for shape in _REPEATED_SHAPES)),)


# The mixed-forms population is fixed: each class comes from its own
# generator seeded with POPULATION_SEED plus the class's index, so
# outcomes.json can pin what each form gets today.  A run's pool draws
# half of each equal-share class from it and takes every repeated-root form.
POPULATION_SEED = 1000
POPULATION_FACTOR = 2


def _class_count(share, n):
    return max(1, round(share * n))


def mixed_population(fr) -> dict:
    """class -> the population's forms of that class, at FULL sizes (the
    TINY and WARM pools draw from the same forms)."""
    out = {}
    for index, (name, share, gens) in enumerate(MIXED_CLASSES):
        rng = random.Random(POPULATION_SEED + index)
        count = _class_count(share, FULL.mixed_forms)
        if name != REPEATED:
            count *= POPULATION_FACTOR
        out[name] = [fr.BinaryForm(tuple(gens[j % len(gens)](rng)))
                     for j in range(count)]
    return out


def mixed_forms(fr, seed: int, sizes: Sizes, population=None) -> list:
    """(class, index in the population, form) triples, each class spread
    evenly over the seeded order.

    An equal-share class is a seeded sample of its population.  The
    repeated-root forms are the population's first ones, in population
    order, whatever the seed: they take about 60 % of a run and differ 8x
    in cost, so the ones a run reaches are the same on every seed."""
    population = population or mixed_population(fr)
    rng = random.Random(seed)
    keyed = []
    for name, share, _ in MIXED_CLASSES:
        pop = population[name]
        count = _class_count(share, sizes.mixed_forms)
        picks = range(count) if name == REPEATED \
            else rng.sample(range(len(pop)), count)
        for j, i in enumerate(picks):
            keyed.append(((j + rng.random()) / count, name, i, pop[i]))
    keyed.sort(key=lambda t: t[0])
    return [(name, i, form) for _, name, i, form in keyed]


# ---------------------------------------------------------------------------
# db-scan, db-records, db-julia
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    """One database experiment: its operation kind, size and answer."""

    kind: str  # compare | maxdist | gen | read | julia-report
    r2: int
    k: int
    expected: object
    rows: int


def db_experiments(fr, workload: str, seed: int, sizes: Sizes) -> list:
    """One pass of the workload's database experiments in seeded order;
    the `read`s always follow the `gen` whose file they read back."""
    def rows(r2, k, positive_re=False):
        pts = fr.lattice_points(r2)
        if positive_re:
            pts = [p for p in pts if p[0] >= 1]
        return math.comb(len(pts), k)

    units = [[Experiment("compare", r2, k, buckets, rows(r2, k))]
             for r2, k, buckets in sizes.compare]
    r2, k, witness = sizes.maxdist
    units.append([Experiment("maxdist", r2, k, witness, rows(r2, k, True))])
    r2, k, count = sizes.gen
    units.append([Experiment("gen", r2, k, count, count)]
                 + [Experiment("read", r2, k, count, count)] * sizes.read_repeats)
    r2, k, differ, total = sizes.julia_report
    units.append([Experiment("julia-report", r2, k, (differ, total), total)])
    kinds = DB_KINDS[workload]
    units = [u for u in units if u[0].kind in kinds]
    random.Random(seed).shuffle(units)
    return [e for unit in units for e in unit]
