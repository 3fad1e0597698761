"""SHA-256 fingerprints of library results, for checking that a refactor
leaves every result byte-identical.

Run from a checkout, once on each tree to compare:

    PYTHONPATH=src python tests/identity_hashes.py [--lines] [recipe ...]

`--lines` prints each recipe's lines, prefixed by the recipe name, instead of
their digest, so that two trees can be compared line by line with `diff`.

The `compare`, `stages`, `db`, `cli` and `julia` digests are also compared
with the values pinned in PINNED below, and the script exits 1 if one
differs.  The first three are exact-integer buckets, exact integer reports
and correctly rounded records, so no platform or refactor may move them.
The cli digest holds the `reduce` and `minimize` JSON of forms that take
each stage-1 route, so it guards the root layer that feeds them.  The Julia
report counts shifts of float zeros, but a zero within 1e-9 of a
half-integer counts as the exact tie, and that band absorbs last-bit changes
of the solver: the digest has not moved since the batched solver came in,
through changes that moved zeros in their last bits.  A change that means
to move a pinned digest re-pins it in the same commit.  The `minimize`
and `roots` digests are not pinned: the roots start from LAPACK's, and the
Julia zeros follow numpy's SIMD exp and log, which may differ by platform.

Recipes (all by default):
  compare   110 results: compare_stats for all five ties at r2/k = 3/4, 4/3,
            4/5, 5/5, 10/3, 3/8, 4/7 at 1 and 2 workers, then every
            max_distance metric/scope/scan_u at r2 = 4, 5, 10, 20 with k=3
            and r2=7 with k=5 (2 workers); one repr per line.
  minimize  minimize and reduce_julia of every form of the benchmark's mixed
            population and all 11 628 r2=4 pentagons: repr of (to_json_dict(),
            scale, matrix, zero_used), or of (exception type, message).
  roots     roots_upper of every form of the benchmark's mixed population,
            all 11 628 r2=4 pentagons, the 40 Mignotte forms and the
            clustered septic of tests/test_forms.py: the hex of each root
            and the repeated flag, or (exception type, message).
  stages    shift_descent at patience 1 to 4 and scale_search at bound 8
            and 64, exact integer functions, on the mixed population and
            every 7th r2=4 pentagon, all raw: repr of to_json_dict().
  db        the write_db files of generate_records at r2=4 k=5 and r2=3 k=8.
  cli       stdout, stderr and exit code of the README commands and of
            reduce/minimize on a few forms that take each stage-1 route.
  julia     julia_vs_com_report dicts at r2/k = 2/2, 3/3, 3/4, 4/3, 4/5,
            5/4; one repr per line.
"""

import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile

import formred as fr
from formred import cli, dbgen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def compare_lines():
    for r2, k in ((3, 4), (4, 3), (4, 5), (5, 5), (10, 3), (3, 8), (4, 7)):
        for tie in dbgen.TIE_NAMES:
            for workers in (1, 2):
                cfg = dbgen.LatticeConfig(r2=r2, kgon=k)
                yield repr(dbgen.compare_stats(cfg, tie, workers=workers))
    for r2, k in ((4, 3), (5, 3), (10, 3), (20, 3), (7, 5)):
        for metric in dbgen.MAXDIST_METRICS:
            for scope in dbgen.MAXDIST_SCOPES:
                for scan_u in dbgen.MAXDIST_SCAN_US:
                    cfg = dbgen.LatticeConfig(r2=r2, kgon=k)
                    yield repr(dbgen.max_distance(cfg, metric, scope, scan_u,
                                                  workers=2))


def mixed_and_pentagons(every):
    """The benchmark's mixed population, then every `every`-th raw r2=4
    pentagon."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    forms = [f for cls in workloads.mixed_population(fr).values() for f in cls]
    ngons = dbgen.enumerate_ngons(dbgen.lattice_points(4), 5)
    for roots in itertools.islice(ngons, 0, None, every):
        forms.append(fr.from_upper_roots([fr.UhpPoint(x, y) for x, y in roots]))
    return forms


def minimize_lines():
    for f in mixed_and_pentagons(1):
        for fn in (fr.minimize, fr.reduce_julia):
            try:
                r = fn(f)
                yield repr((r.to_json_dict(), r.scale, r.matrix, r.zero_used))
            except Exception as exc:
                yield repr((type(exc).__name__, str(exc)))


def roots_lines():
    forms = mixed_and_pentagons(1)
    # the 40 Mignotte forms x^d - 2 (a x - y)^2 y^(d-2) and the clustered
    # septic of tests/test_forms.py, whose roots take the sweeps
    forms += [fr.BinaryForm((1,) + (0,) * (d - 3) + (-2 * a * a, 4 * a, -2))
              for d in range(4, 12) for a in (3, 10, 30, 100, 1000)]
    forms.append(fr.transform(
        fr.BinaryForm((1, -27, 285, -1399, 2594, 2502, -16020, 12064)),
        fr.UnimodularMatrix(-2, -3, 5, 7)))
    for f in forms:
        try:
            rs = fr.roots_upper(f)
            yield repr(([(p.t.hex(), p.u.hex()) for p in rs.upper],
                        [x.hex() for x in rs.real], rs.repeated))
        except Exception as exc:
            yield repr((type(exc).__name__, str(exc)))


def stages_lines():
    for f in mixed_and_pentagons(7):
        for patience in range(1, 5):
            yield repr(fr.shift_descent(f, patience).to_json_dict())
        for bound in (8, 64):
            yield repr(fr.scale_search(f, bound).to_json_dict())


def db_lines():
    with tempfile.TemporaryDirectory() as tmp:
        for r2, k in ((4, 5), (3, 8)):
            path = os.path.join(tmp, "db.jsonl")
            dbgen.write_db(dbgen.generate_records(
                dbgen.LatticeConfig(r2=r2, kgon=k)), path)
            with open(path, "rb") as fh:
                yield hashlib.sha256(fh.read()).hexdigest()


TRIANGLE = "1,-44,1325,-32280,480964,-5809376,47831060"
PENTAGON = ",".join(map(str, fr.from_upper_roots(
    [fr.UhpPoint(x, y) for x, y in ((1, 5), (1, 6), (2, 6), (3, 3), (6, 1))]
).coeffs))
CLI_RUNS = [
    ["compare", "--k", "5", "--r2", "4", "--json"],
    ["maxdist", "--k", "3", "--r2", "20", "--json"],
    ["quad", "--enumerate-disc", "23"],
    ["quad", "--enumerate-disc", "23", "--json"],
] + [
    ["reduce", "--coeffs", c, "--method", m, "--json"]
    for c in (TRIANGLE, PENTAGON, "1,0,1,1", "1,0,-2,0", "1,0,-2",
              "0,3,2,1,2,-1,-1")
    for m in ("hyperbolic", "com", "julia")
] + [
    ["minimize", "--coeffs", c, "--json"]
    for c in (TRIANGLE, PENTAGON, "1,0,1,1", "1,0,-2,0", "1,0,-2",
              "0,3,2,1,2,-1,-1")
]


def cli_lines():
    # gen prints its --out path, so it writes to a relative one
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            runs = CLI_RUNS + [["gen", "--k", "5", "--r2", "4",
                                "--out", "pentagons.jsonl"]]
            for argv in runs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                yield repr((argv[:1], out.getvalue(), err.getvalue(), code))
            with open("pentagons.jsonl", "rb") as fh:
                yield hashlib.sha256(fh.read()).hexdigest()
        finally:
            os.chdir(home)


def julia_lines():
    for r2, k in ((2, 2), (3, 3), (3, 4), (4, 3), (4, 5), (5, 4)):
        yield repr(dbgen.julia_vs_com_report(dbgen.LatticeConfig(r2=r2,
                                                                 kgon=k)))


RECIPES = {"compare": compare_lines, "minimize": minimize_lines,
           "roots": roots_lines, "stages": stages_lines, "db": db_lines,
           "cli": cli_lines, "julia": julia_lines}

PINNED = {
    "compare": "16b365b6c5ed39b84d5f6109990c54a0d0f83256d1ac653d1239d0c10a3c40e5",
    "db": "211e5158009a6375b88d3c03a936fdb1d73a3bf91454dd73a63f9329db28c8f0",
    "cli": "492738aca1838ab54bc5407313f1f56087483f63fc44f82d7f28fa72a7fad3b6",
    "julia": "ef30d0a9870ea45107365796921950f124de42b2ab88618a92c1f1c89aee140d",
    "stages": "b7722da1c8bd14aca1b430f54a8c111c42bbf0f2486452a27e042f9ddd57d1d3",
}


if __name__ == "__main__":
    args = sys.argv[1:]
    if "--lines" in args:
        # one line per result instead of a digest, to diff two trees
        args.remove("--lines")
        for name in args or RECIPES:
            for line in RECIPES[name]():
                print(f"{name}: {line}")
        sys.exit()
    moved = []
    for name in args or RECIPES:
        digest = hashlib.sha256()
        count = 0
        for line in RECIPES[name]():
            digest.update(line.encode() + b"\n")
            count += 1
        hexdigest = digest.hexdigest()
        print(f"{name}: {count} lines, sha256 {hexdigest}")
        if name in PINNED and PINNED[name] != hexdigest:
            moved.append(name)
    if moved:
        print(f"moved from the pinned digests: {', '.join(moved)}")
        sys.exit(1)
