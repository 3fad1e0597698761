"""formred benchmark: form-reduction latency and database-experiment throughput.

    python3 perfbench/run.py --workload pentagon-db --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`.  One caller drives the library in a closed loop with
`workers=1`, round after round, until `--seconds` is used up:

  pentagon-db  a round is one `minimize` call on a form of the r2=4, k=5
               pentagon database;
  mixed-forms  a round is one generated form sent to `minimize` and then to
               `reduce_julia`;
  db-scan      a round is one pass of the scans: two `compare_stats` sizes
               and one `max_distance`;
  db-records   a round is `generate_records` + `write_db`, then `read_db`
               of the file, repeated;
  db-julia     a round is one `julia_vs_com_report`.

Every output is checked (see checks.py): reduction reports by their
certificate, database experiments by their pinned answers.  Each call ends
`ok`, `domain_error` (a documented refusal), `crash` (any other exception) or
`wrong` (check failed).  A call fails when it ends otherwise than `ok`, or
than the `domain_error` that outcomes.json pins for its mixed-forms input;
any failed call fails the run (`correct: false`, exit code 1).  The
mixed-forms inputs that outcomes.json pins as crashing today are kept out of
the rounds: each is run once after them, untimed, and its outcomes are
printed and saved apart; a `wrong` among them also fails the run.

`setup_s` is the median of several set-ups, each in a fresh interpreter:
`import formred`, building the inputs and a warm-up on fixed inputs.

With `--trace 0` the end-to-end metrics are measured with tracing off.  With
`--trace 1` every round runs twice, untraced and then traced, and the
per-layer metrics come from the traced spans (see tracing.py); the tracing
overhead is the traced minus the untraced wall time.  The last line of
stdout is one JSON object `{"correct", "attempted", "failed", "metrics"}`;
the lines before it print every figure by name and unit, and a results file
with the recorded context goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

clock = time.perf_counter

SETUP_REPEATS = 5


# A shared 2-vCPU cloud host can run identical code up to 1.7x slower for
# tens of seconds at a time, as other tenants load it.  A fixed
# reference computation (interpreter loop, big integers, fractions, small
# numpy calls: the library's own mix, none of its code) is timed right
# after every operation; the gated latencies and rates are rescaled to the
# speed at which it takes REF_NOMINAL_S.  Raw wall-clock figures are
# printed and saved beside them.
REF_NOMINAL_S = 0.0006
REF_BURST = 15
_REF_POLY = []


def reference():
    import numpy  # not at the top: set-up times its import as the library's
    if not _REF_POLY:
        _REF_POLY.append(numpy.arange(1.0, 12.0))
    x = 0
    for i in range(150):
        x = (x * 31 + i * i) % 1_000_003
    b = 3 ** 200
    for _ in range(20):
        b = b * b % (10 ** 60 + 7)
    f = Fraction(1, 3)
    for i in range(20):
        f += Fraction(i, 7)
    for _ in range(5):
        numpy.roots(_REF_POLY[0])
    return x, b, f


def reference_times(reps):
    out = []
    for _ in range(reps):
        t0 = clock()
        reference()
        out.append(clock() - t0)
    return out


def percentile(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Run:
    """What one run measured: operations, reference timings and outcomes."""

    def __init__(self):
        self.ops = []                     # (round, rows, wall seconds)
        self.refs = [reference_times(REF_BURST)]  # refs[i]: just before op i
        self.inside = []                  # inside[i]: Sampler bursts during op i
        self.kind_seconds = {}            # per library call kind
        self.kind_rows = {}
        self.outcomes = checks.Outcomes()
        self.by_class = checks.Outcomes()  # mixed-forms: per input class
        self.failed = 0                   # calls that did worse than today

    def op(self, rnd, rows, seconds, ref_reps, inside=()):
        self.ops.append((rnd, rows, seconds))
        self.inside.append(list(inside))
        self.refs.append(reference_times(ref_reps))

    def timed(self, kind, seconds, rows=1):
        self.kind_seconds.setdefault(kind, []).append(seconds)
        self.kind_rows[kind] = self.kind_rows.get(kind, 0) + rows

    def scaled_seconds(self, reach):
        """Each op's seconds at reference speed.  An op with Sampler bursts
        takes the mean reference timing over them and the bursts at its
        ends, as the host speed may change during it; any other, the median
        reference timing just before and after it and `reach` ops further
        each way."""
        out = []
        for i, (_, _, sec) in enumerate(self.ops):
            if self.inside[i]:
                ref = statistics.fmean(
                    [statistics.median(self.refs[i]), *self.inside[i],
                     statistics.median(self.refs[i + 1])])
            else:
                ref = statistics.median(
                    t for r in self.refs[max(0, i - reach): i + 2 + reach]
                    for t in r)
            out.append(sec * REF_NOMINAL_S / ref)
        return out

    def rounds(self, seconds):
        """(rows, seconds) per round, given each op's seconds."""
        out = {}
        for (rnd, r, _), sec in zip(self.ops, seconds):
            rows, secs = out.get(rnd, (0, 0.0))
            out[rnd] = (rows + r, secs + sec)
        return [out[k] for k in sorted(out)]

    def rows_per_s(self, seconds, windows=10):
        """Median over consecutive windows of rounds of rows per busy second,
        so that a burst of load on the host moves one window, not the figure."""
        rounds = self.rounds(seconds)
        n = len(rounds)
        w = min(windows, n)
        cuts = [n * j // w for j in range(w + 1)]
        return statistics.median(
            sum(r for r, _ in rounds[a:b]) / sum(sec for _, sec in rounds[a:b])
            for a, b in zip(cuts, cuts[1:]))


class Sampler:
    """Reference bursts taken from inside a database experiment.

    An experiment runs for seconds, in which the host speed can change.
    `installed()` rebinds names of `formred.dbgen` that the engines call per
    row or per chunk (SAMPLE_HOOKS) to wrappers that time a short burst of
    the reference at most every PERIOD seconds.  The bursts' own time is
    kept in `spent`, to be taken off the experiment's.  A name a later
    refactor removed is skipped: its engine is then sampled at its ends
    only."""

    SAMPLE_HOOKS = ("_shifts_from_ratio", "_centers", "build_record",
                    "minimize_theta0", "_record_line")
    PERIOD = 0.05
    BURST = 3

    def __init__(self):
        self.bursts = []  # median reference timing of each burst
        self.spent = 0.0
        self._due = 0.0

    def tick(self):
        t0 = clock()
        if t0 < self._due:
            return
        self.bursts.append(statistics.median(reference_times(self.BURST)))
        t1 = clock()
        self.spent += t1 - t0
        self._due = t1 + self.PERIOD

    def _wrap(self, fn):
        def sampled(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.tick()
            return result
        return sampled

    @contextmanager
    def installed(self):
        module = importlib.import_module("formred.dbgen")
        saved = [(name, getattr(module, name)) for name in self.SAMPLE_HOOKS
                 if hasattr(module, name)]
        for name, fn in saved:
            setattr(module, name, self._wrap(fn))
        self.bursts, self.spent = [], 0.0
        self._due = clock() + self.PERIOD
        try:
            yield self
        finally:
            for name, fn in saved:
                setattr(module, name, fn)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

OUTCOMES_FILE = HERE / "outcomes.json"
FORM_CALLS = ("minimize", "reduce_julia")


def call_form(fr, kind, f):
    """One reduction call, checked: (outcome, detail, seconds)."""
    t0 = clock()
    try:
        report = (fr.reduce.minimize(f) if kind == "minimize"
                  else fr.reduce.reduce_julia(f))
    except fr.DomainError:
        return "domain_error", None, clock() - t0
    except Exception as exc:  # a crash is a measured outcome
        return "crash", f"{type(exc).__name__}: {exc}", clock() - t0
    dt = clock() - t0
    detail = checks.certificate_error(f.coeffs, report)
    return ("wrong" if detail else "ok"), detail, dt


def population_digest(population):
    h = hashlib.sha256()
    for name in sorted(population):
        for f in population[name]:
            h.update(repr((name, f.coeffs)).encode())
    return h.hexdigest()


def load_pinned(population):
    """outcomes.json: "class/index" -> {call: outcome} for each population
    form that does not end `ok` today.  Exits when the file was pinned for
    other forms than `population`."""
    try:
        pinned = json.loads(OUTCOMES_FILE.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        sys.exit(f"run.py: cannot read {OUTCOMES_FILE.name}: {exc}")
    if pinned.get("population_digest") != population_digest(population):
        sys.exit(f"run.py: {OUTCOMES_FILE.name} was pinned for another "
                 "mixed-forms population; rerun perfbench/pin_outcomes.py")
    return pinned["forms"]


class FormWorkload:
    """pentagon-db and mixed-forms: a round reduces one form.

    An item is (class, form, expected): `expected` maps a call to the
    outcome it gets today when that is not `ok`.  A call fails when it ends
    otherwise than `ok` or its expected `domain_error`."""

    # rounds take milliseconds: rescale by the references of ~100 of them
    reach = 50

    def __init__(self, fr, name, seed, sizes):
        self.fr = fr
        self.items, self.probe = [], []
        if name == "pentagon-db":
            # every form of the paper's database reduces today
            self.kinds = ("minimize",)
            self.items = self._pentagon(seed, sizes)
            self.warm_items = self._pentagon(0, workloads.WARM)
            return
        self.kinds = FORM_CALLS
        population = workloads.mixed_population(fr)
        pinned = load_pinned(population)
        for cls, i, f in workloads.mixed_forms(fr, seed, sizes, population):
            expected = pinned.get(f"{cls}/{i}", {})
            # forms that crash today are run once, untimed, by run_probe()
            crashes = "crash" in expected.values()
            (self.probe if crashes else self.items).append((cls, f, expected))
        self.warm_items = [(cls, f, {}) for cls, _, f in workloads.mixed_forms(
            fr, 0, workloads.WARM, population)]

    def _pentagon(self, seed, sizes):
        return [(None, f, {})
                for f in workloads.pentagon_forms(self.fr, seed, sizes)]

    def warm(self):
        import mpmath  # noqa: F401  (imported lazily by the escalation path)
        run = Run()
        for _, f, _ in self.warm_items:
            self.reduce_form(f, run, None, {})

    def reduce_form(self, f, run, cls, expected):
        """Send f through every call kind; returns the seconds they took."""
        total = 0.0
        for kind in self.kinds:
            outcome, detail, dt = call_form(self.fr, kind, f)
            total += dt
            run.timed(kind, dt)
            run.outcomes.add(kind, outcome, detail and f"{f.coeffs}: {detail}")
            if cls is not None:
                run.by_class.add(f"{kind}[{cls}]", outcome)
            if outcome != "ok" and not (
                    outcome == "domain_error"
                    and expected.get(kind) == "domain_error"):
                run.failed += 1
        return total

    def round(self, i, run):
        cls, f, expected = self.items[i % len(self.items)]
        run.op(i, 1, self.reduce_form(f, run, cls, expected), 1)

    def run_probe(self):
        """Each form pinned as crashing today, once and untimed: a Run whose
        outcomes show whether the known crashes still happen."""
        run = Run()
        for cls, f, expected in self.probe:
            self.reduce_form(f, run, cls, expected)
        return run

    def named_metrics(self, run):
        out = {}
        for kind in self.kinds:
            ms = [1e3 * s for s in run.kind_seconds.get(kind, [])]
            if not ms:
                continue
            short = "julia" if kind == "reduce_julia" else kind
            out[f"{short}_ms_p50"] = (statistics.median(ms), "ms", len(ms))
            out[f"{short}_ms_p99"] = (percentile(ms, 99), "ms", len(ms))
            if kind == "minimize":
                out["minimize_per_s"] = (1e3 * len(ms) / sum(ms), "1/s", len(ms))
        return out


class DbWorkload:
    """db-scan, db-records, db-julia: a round is one pass of the workload's
    database experiments."""

    # experiments take seconds: rescale by the references around each alone
    reach = 0

    def __init__(self, fr, name, seed, sizes):
        self.fr = fr
        self.name = name
        self.plan = workloads.db_experiments(fr, name, seed, sizes)
        self.path = OUT / f"{name}-{os.getpid()}.jsonl"
        self.records = None
        # off in traced runs, so that no burst lands in a span
        self.sample = True

    def warm(self):
        for exp in workloads.db_experiments(self.fr, self.name, 0,
                                            workloads.WARM):
            self._execute(exp)
        self.close()

    def _execute(self, exp):
        fr = self.fr
        dbgen = fr.dbgen
        config = fr.LatticeConfig(r2=exp.r2, kgon=exp.k)
        if exp.kind == "compare":
            stats = dbgen.compare_stats(config)
            return lambda: checks.compare_error(stats, exp.expected)
        if exp.kind == "maxdist":
            record = dbgen.max_distance(config)
            return lambda: checks.maxdist_error(record, exp.expected)
        if exp.kind == "gen":
            self.records = list(dbgen.generate_records(config))
            count = dbgen.write_db(self.records, self.path)
            return lambda: (None if count == exp.expected else
                            f"wrote {count} records, expected {exp.expected}")
        if exp.kind == "read":
            back = dbgen.read_db(self.path)
            return lambda: checks.roundtrip_error(self.records, back)
        report = dbgen.julia_vs_com_report(config)
        return lambda: checks.julia_report_error(report, exp.expected)

    def round(self, i, run):
        for exp in self.plan:
            sampler = Sampler()
            with sampler.installed() if self.sample else nullcontext():
                t0 = clock()
                try:
                    check = self._execute(exp)
                except Exception as exc:  # a crash is a measured outcome
                    check, detail = None, f"{type(exc).__name__}: {exc}"
                dt = clock() - t0 - sampler.spent
            if check is None:
                outcome = "crash"
            else:
                detail = check()
                outcome = "wrong" if detail else "ok"
            run.op(i, exp.rows, dt, REF_BURST, sampler.bursts)
            run.timed(exp.kind, dt, exp.rows)
            run.outcomes.add(exp.kind, outcome, detail)
            # an experiment that raises has not reproduced its pinned answer
            run.failed += outcome != "ok"

    def close(self):
        self.path.unlink(missing_ok=True)

    def named_metrics(self, run):
        out = {}
        for kind in ("compare", "maxdist", "gen", "read", "julia-report"):
            secs = run.kind_seconds.get(kind)
            if secs:
                name = kind.replace("-", "_") + "_rows_per_s"
                out[name] = (run.kind_rows[kind] / sum(secs), "1/s", len(secs))
        return out


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def import_library():
    src = ROOT / "src"
    if not (src / "formred" / "__init__.py").is_file():
        sys.exit(f"run.py: no formred sources under {src}")
    sys.path.insert(0, str(src))
    import formred
    import formred.dbgen
    import formred.reduce
    if Path(formred.__file__).resolve().parent != (src / "formred").resolve():
        sys.exit(f"run.py: formred imported from {formred.__file__}, not {src}")
    return formred


def set_up_once(name, seed, sizes):
    """Import the library, build the inputs and warm up; returns the
    workload and the (import, inputs, warm-up) seconds."""
    t0 = clock()
    fr = import_library()
    t1 = clock()
    wl = (DbWorkload if name.startswith("db-") else FormWorkload)(
        fr, name, seed, sizes)
    t2 = clock()
    wl.warm()
    t3 = clock()
    return wl, (t1 - t0, t2 - t1, t3 - t2)


def set_up(args):
    """Set up the workload this run measures, then time SETUP_REPEATS more
    set-ups, each in a fresh `--setup-only` child interpreter.  Returns the
    workload and, per timed set-up, its parts and the median reference
    timing of the bursts this process takes just before and after it."""
    sizes = workloads.TINY if args.tiny else workloads.FULL
    wl, _ = set_up_once(args.workload, args.seed, sizes)
    child = [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--setup-only"] + (["--tiny"] if args.tiny else [])
    parts = []
    before = reference_times(REF_BURST)
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(child, capture_output=True, text=True,
                              check=True, timeout=150)
        after = reference_times(REF_BURST)
        parts.append((*json.loads(done.stdout.splitlines()[-1]),
                      statistics.median(before + after)))
        before = after
    return wl, parts


def measure(wl, seconds, tracer=None):
    """Run rounds while the next one is likely to end within `seconds`.

    With a tracer every round runs untraced and then traced; returns the run,
    the rounds done and the untraced and traced wall seconds."""
    run = Run()
    rounds = 0
    plain = traced = 0.0
    start = clock()
    while True:
        elapsed = clock() - start
        if rounds and elapsed + elapsed / rounds > seconds:
            break
        t0 = clock()
        wl.round(rounds, run)
        plain += clock() - t0
        if tracer is not None:
            t0 = clock()
            tracer.op = rounds
            with tracer.installed(), tracer.span("round"):
                wl.round(rounds, run)
            traced += clock() - t0
        rounds += 1
    return run, rounds, plain, traced


def machine():
    import mpmath
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__}


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "formred").glob("*.py")))


def load_spec():
    """BENCHMARK.json: the metrics' names and units, the workloads' why."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        sys.exit(f"run.py: cannot read BENCHMARK.json: {exc}")


def show(name, value, unit, note=""):
    print(f"  {name:34s} {value:14.6g} {unit:9s} {note}".rstrip())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (seconds-long, still checked)")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print its parts as JSON and exit")
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        sizes = workloads.TINY if args.tiny else workloads.FULL
        _, parts = set_up_once(args.workload, args.seed, sizes)
        print(json.dumps(parts))
        return 0

    spec = load_spec()
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    wl, setup_parts = set_up(args)
    tracer = Tracer() if args.trace else None
    if tracer is not None and isinstance(wl, DbWorkload):
        wl.sample = False
    try:
        run, rounds, plain, traced = measure(wl, args.seconds, tracer)
    finally:
        if isinstance(wl, DbWorkload):
            wl.close()

    probe = wl.run_probe() if isinstance(wl, FormWorkload) else None
    attempted = run.outcomes.total()
    ok = run.outcomes.total("ok")
    correct = not run.failed and not (probe and probe.outcomes.total("wrong"))

    print(f"formred benchmark: workload {args.workload}, seed {args.seed}, "
          f"{rounds} rounds in {plain:.2f} s"
          + (f" untraced + {traced:.2f} s traced" if tracer else ""))
    print("outcomes per operation kind (ok / domain_error / crash / wrong):")
    for kind, c in sorted(run.outcomes.counts.items()):
        print(f"  {kind:34s} " + " / ".join(str(c[o]) for o in checks.OUTCOMES))
    for kind, c in sorted(run.by_class.counts.items()):
        print(f"  {kind:34s} " + " / ".join(str(c[o]) for o in checks.OUTCOMES))
    for line in run.outcomes.examples[:5]:
        print(f"  e.g. {line[:200]}")
    if probe is not None and probe.outcomes.counts:
        print(f"forms pinned as crashing today ({len(wl.probe)} of the pool),"
              " run once after the rounds, untimed and not counted above:")
        for kind, c in sorted(probe.by_class.counts.items()):
            print(f"  {kind:34s} " + " / ".join(str(c[o]) for o in checks.OUTCOMES))
        for line in probe.outcomes.examples[:3]:
            print(f"  e.g. {line[:200]}")

    def end_to_end(op_seconds, setups):
        ms = [1e3 * sec for _, sec in run.rounds(op_seconds)]
        return {
            "setup_s": statistics.median(setups),
            "ok_share": ok / attempted,
            "op_ms_p50": statistics.median(ms),
            "op_ms_p99": percentile(ms, 99),
            "rows_per_s": run.rows_per_s(op_seconds),
        }

    raw = end_to_end([sec for _, _, sec in run.ops],
                     [imp + inp + warm for imp, inp, warm, _ in setup_parts])
    e2e = end_to_end(run.scaled_seconds(wl.reach),
                     [(imp + inp + warm) * REF_NOMINAL_S / ref
                      for imp, inp, warm, ref in setup_parts])
    host_speed = REF_NOMINAL_S / statistics.median(
        t for burst in run.refs for t in burst)
    named = wl.named_metrics(run)
    named["failed_share"] = (1 - ok / attempted, "share", attempted)

    layers = {}
    if tracer is not None:
        layers = layer_metrics(tracer, rounds)
        layers["trace.overhead_ms"] = 1e3 * (traced - plain) / rounds
        layers["trace.overhead_share"] = (traced - plain) / plain
        layers["trace.absent_hooks"] = len(tracer.absent)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        print(f"per-layer metrics over {rounds} traced rounds:")
        for name, value in layers.items():
            show(name, value, layer_units[name])
        for hook in tracer.absent:
            print(f"  absent hook {hook}: its metrics read 0")
    else:
        print(f"end-to-end metrics over {rounds} rounds, at "
              f"reference speed (this run's host speed: {host_speed:.3f}):")
        for name, value in e2e.items():
            show(name, value, e2e_units[name])
        print("end-to-end metrics, raw wall clock:")
        for name, value in raw.items():
            show(name, value, e2e_units[name])
        print("per operation kind:")
        for name, (value, unit, n) in named.items():
            show(name, value, unit, f"n={n}")

    result = {
        "workload": args.workload,
        "why": next((w["why"] for w in spec["workloads"]
                     if w["name"] == args.workload), None),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": machine(),
        "src_formred_lines": src_lines(),
        "setup_parts_s": [dict(zip(("import", "inputs", "warm", "reference"), p))
                          for p in setup_parts],
        "host_speed": host_speed,
        "rounds": rounds,
        "outcomes": run.outcomes.counts,
        "outcomes_by_class": run.by_class.counts,
        "pinned_crash_outcomes_by_class": probe.by_class.counts if probe else None,
        "failure_examples": run.outcomes.examples,
        "end_to_end": e2e if tracer is None else None,
        "end_to_end_raw": raw if tracer is None else None,
        "per_kind": {k: {"value": v, "unit": u, "n": n}
                     for k, (v, u, n) in named.items()},
        "per_layer": layers or None,
        "absent_hooks": tracer.absent if tracer else None,
        "op_ms_raw": [1e3 * sec for _, _, sec in run.ops],
    }
    suffix = "-tiny" if args.tiny else ""
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json") \
        .write_text(json.dumps(result, indent=1), encoding="utf-8")

    chosen = layers if tracer else e2e
    units = layer_units if tracer else e2e_units
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
