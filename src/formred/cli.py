"""Command-line front end.

Exit codes: 0 success, 1 usage error (an unwritable --out among them), 2
numeric non-convergence, 3 domain error.  Coefficients are comma-separated
integers in DESCENDING x-power (so x^2 + 4y^2 is --coeffs 1,0,4).  With
--json the output is a single machine-readable object, byte-identical
across runs and worker counts; human tables print floats with 6 decimals
and heights exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .dbgen import (DEFAULT_COMPARE_TIE, DEFAULT_MAXDIST_METRIC,
                    DEFAULT_MAXDIST_SCAN_U, DEFAULT_MAXDIST_SCOPE,
                    MAXDIST_METRICS, MAXDIST_SCAN_US, MAXDIST_SCOPES, REGIONS,
                    TIE_NAMES, LatticeConfig, compare_stats, generate_records,
                    lattice_points, max_distance, stats_json_dict, write_db)
from .errors import ConvergenceError, DomainError
from .forms import BinaryForm
from .quad import QuadraticForm, enumerate_reduced, q_discriminant, q_reduce
from .reduce import minimize, reduce_com, reduce_hyperbolic, reduce_julia

# reduce --method: the zero map of each choice, called with the form and --tie
_REDUCERS = {
    "julia": lambda f, tie: reduce_julia(f),
    "hyperbolic": lambda f, tie: reduce_hyperbolic(f),
    "com": reduce_com,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _parse_coeffs(text: str) -> BinaryForm:
    try:
        return BinaryForm(tuple(int(t) for t in text.split(",")))
    except ValueError as exc:
        raise DomainError(str(exc))


def _workers(text: str) -> int:
    """--workers: an integer of at least 1 (dbgen cuts it to the CPU
    count)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _emit(obj: dict, as_json: bool):
    if as_json:
        print(json.dumps(obj, separators=(",", ":"), sort_keys=True))
        return
    for key, val in obj.items():
        print(f"{key}: {val:.6f}" if isinstance(val, float) else f"{key}: {val}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="formred",
                description="Height reduction of integer binary forms.")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output on stdout")
    # one parent parser per option family.  --json is accepted after the
    # subcommand too; SUPPRESS keeps a pre-subcommand --json from being
    # clobbered by the subparser default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="machine-readable output on stdout")
    form = argparse.ArgumentParser(add_help=False, parents=[common])
    form.add_argument("--coeffs", required=True,
                      help="comma-separated integers, descending x-power")
    form.add_argument("--tie", default="away", choices=TIE_NAMES,
                      help="rounding of the com shift of reduce --method "
                           "com and minimize; julia and hyperbolic ignore it")
    db = argparse.ArgumentParser(add_help=False, parents=[common])
    db.add_argument("--k", type=int, required=True, help="n-gon size")
    db.add_argument("--r2", type=int, required=True, help="outer radius")
    db.add_argument("--region", default=REGIONS[0], choices=REGIONS,
                    help="lattice region; default keeps y>=1, 1<|z|<=r2")
    db.add_argument("--workers", type=_workers, default=1,
                    help="worker processes, at most the CPU count")
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[db],
                         help="generate an n-gon database",
                         description="Stream the database of k-gon forms to a "
                                     "JSONL file (or just count with --no-store).")
    gen.add_argument("--out", help="output JSONL path")
    gen.add_argument("--no-store", action="store_true",
                     help="do not write records, report the count only")

    red = sub.add_parser("reduce", parents=[form],
                         help="reduce one form by a single method",
                         description="Reduce a form; --method picks the zero "
                                     "map (julia = theta_0 minimizer).")
    red.add_argument("--method", default="hyperbolic", choices=_REDUCERS)

    mini = sub.add_parser("minimize", parents=[form],
                          help="full reduction pipeline",
                          description="Centroid reduction, then shift descent, "
                                      "then the scaling scan.")
    mini.add_argument("--patience", type=int, default=3,
                      help="non-improving shifts tolerated before stopping")
    mini.add_argument("--scale-bound", type=int, default=64,
                      help="numerator/denominator bound of the scaling scan")

    cmp_ = sub.add_parser("compare", parents=[db],
                          help="hyperbolic vs center-of-mass stats",
                          description="Shift every database form both ways and "
                                      "bucket by the smaller resulting height.")
    cmp_.add_argument("--tie", default=DEFAULT_COMPARE_TIE,
                      choices=TIE_NAMES,
                      help="shift rounding convention; up-2dp (2-decimal "
                           "pre-round, then half-up) reproduces the "
                           "reference buckets")
    cmp_.add_argument("--out", help="write the stats JSON here as well")

    mx = sub.add_parser("maxdist", parents=[db],
                        help="record with farthest-apart centers",
                        description="Scan every n-gon for the maximal distance "
                                    "between center of mass and hyperbolic "
                                    "centroid.")
    mx.add_argument("--metric", default=DEFAULT_MAXDIST_METRIC,
                    choices=MAXDIST_METRICS)
    mx.add_argument("--scope", default=DEFAULT_MAXDIST_SCOPE,
                    choices=MAXDIST_SCOPES,
                    help="restrict the scanned n-gons; positive-re is the "
                         "calibrated default reproducing the known witnesses")
    mx.add_argument("--scan-u", default=DEFAULT_MAXDIST_SCAN_U,
                    choices=MAXDIST_SCAN_US,
                    help="centroid height used in the distance: mean-y is "
                         "the calibrated default, definition is "
                         "sqrt(|C|^2-t^2)")

    qd = sub.add_parser("quad", parents=[common],
                        help="binary quadratic utilities",
                        description="Reduce one positive definite quadratic or "
                                    "enumerate the reduced forms of a "
                                    "discriminant.")
    g = qd.add_mutually_exclusive_group(required=True)
    g.add_argument("--reduce", metavar="a,b,c",
                   help="reduce the positive definite form [a, b, c]")
    g.add_argument("--enumerate-disc", type=int, metavar="D",
                   help="list reduced forms of discriminant -D")
    qd.add_argument("--primitive-only", action="store_true",
                    help="with --enumerate-disc, count only primitive forms")
    return p


def _config(args) -> LatticeConfig:
    return LatticeConfig(r2=args.r2, kgon=args.k, region=args.region)


def _cmd_gen(args) -> dict:
    config = _config(args)
    head = {"k": args.k, "r2": args.r2, "region": args.region}
    if args.no_store:
        n = len(lattice_points(config.r2, config.region))
        return {**head, "points": n, "count": math.comb(n, args.k),
                "stored": False}
    if not args.out:
        raise DomainError("gen needs --out unless --no-store is given")
    count = write_db(generate_records(config, workers=args.workers), args.out)
    return {**head, "count": count, "out": args.out, "stored": True}


def _cmd_reduce(args) -> dict:
    f = _parse_coeffs(args.coeffs)
    return _REDUCERS[args.method](f, args.tie).to_json_dict()


def _cmd_minimize(args) -> dict:
    return minimize(_parse_coeffs(args.coeffs), patience=args.patience,
                    bound=args.scale_bound, tie=args.tie).to_json_dict()


def _cmd_compare(args) -> dict:
    config = _config(args)
    stats = compare_stats(config, tie=args.tie, workers=args.workers)
    obj = stats_json_dict(config, stats, tie=args.tie)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
    return obj


def _cmd_maxdist(args) -> dict:
    rec = max_distance(_config(args), metric=args.metric, scope=args.scope,
                       scan_u=args.scan_u, workers=args.workers)
    return {
        "k": args.k, "r2": args.r2, "metric": args.metric, "scope": args.scope,
        "scan_u": args.scan_u,
        "roots": [list(r) for r in rec.roots],
        "coeffs": [str(c) for c in rec.coeffs],
        "com": [round(v, 6) for v in rec.com],
        "hyp": [round(v, 6) for v in rec.hyp],
    }


def _cmd_quad(args) -> dict:
    if args.reduce is not None:
        try:
            a, b, c = (int(t) for t in args.reduce.split(","))
        except ValueError as exc:
            raise DomainError(f"--reduce wants a,b,c integers: {exc}")
        Q, M = q_reduce(QuadraticForm(a, b, c))
        return {
            "input": [a, b, c],
            "reduced": [int(Q.a), int(Q.b), int(Q.c)],
            "matrix": [[M.a, M.b], [M.c, M.d]],
            "discriminant": int(q_discriminant(Q)),
        }
    D = args.enumerate_disc
    forms = enumerate_reduced(D, primitive_only=args.primitive_only)
    return {
        "D": D,
        "count": len(forms),
        "forms": [[int(Q.a), int(Q.b), int(Q.c)] for Q in forms],
        "primitive_only": bool(args.primitive_only),
    }


_COMMANDS = {
    "gen": _cmd_gen,
    "reduce": _cmd_reduce,
    "minimize": _cmd_minimize,
    "compare": _cmd_compare,
    "maxdist": _cmd_maxdist,
    "quad": _cmd_quad,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        obj = _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"formred: domain error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"formred: did not converge: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"formred: error: {exc}", file=sys.stderr)
        return 1
    _emit(obj, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
