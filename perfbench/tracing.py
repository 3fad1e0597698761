"""Per-layer spans recorded from outside the library.

`Tracer.installed()` rebinds the names each `formred` module looks up (for
example `formred.reduce.scale_search`, which `minimize` calls through its
module globals) to wrappers that record a span, and restores them on exit.
A span is `[name, start, end, parent, op, note]`: `parent` indexes the
enclosing span (-1 at the top), `op` numbers the benchmark operation, and
`note` holds a value taken from the call (rows of a chunk, whether a scaling
helped, bytes written) or the exception type when the call raised.  Spans
stay in memory until `write()`.  A hooked name that a later refactor
removed is recorded in `absent` and its metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager

_clock = time.perf_counter


def _scale_useful(args, kwargs, result):
    return result.scale != 1


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


# (module, attribute, span name, note).  A name looked up by several modules
# is hooked in each, under one span name.
SPAN_HOOKS = (
    ("formred.reduce", "roots_upper", "forms.roots_upper", None),
    ("formred.julia", "roots_upper", "forms.roots_upper", None),
    ("formred.forms", "_roots_high_precision", "forms.roots_escalated", None),
    ("formred.reduce", "transform", "forms.transform", None),
    ("formred.reduce", "hyperbolic_centroid", "hyper.hyperbolic_centroid", None),
    ("formred.dbgen", "hyperbolic_centroid", "hyper.hyperbolic_centroid", None),
    ("formred.reduce", "reduce_to_fundamental", "hyper.reduce_to_fundamental",
     None),
    ("formred.reduce", "minimize_theta0", "julia.minimize_theta0", None),
    ("formred.dbgen", "minimize_theta0", "julia.minimize_theta0", None),
    ("formred.reduce", "minimize", "reduce.minimize", None),
    ("formred.reduce", "reduce_hyperbolic", "reduce.reduce_hyperbolic", None),
    ("formred.reduce", "reduce_com", "reduce.reduce_com", None),
    ("formred.reduce", "reduce_julia", "reduce.reduce_julia", None),
    ("formred.reduce", "shift_descent", "reduce.shift_descent", None),
    ("formred.reduce", "scale_search", "reduce.scale_search", _scale_useful),
    ("formred.dbgen", "_centers", "dbgen.centers", None),
    ("formred.dbgen", "_shifts_from_ratio", "dbgen.shift_round", None),
    ("formred.dbgen", "_expand_forms", "dbgen.expand_forms", None),
    ("formred.dbgen", "_shift_heights", "dbgen.shift_heights", None),
    ("formred.dbgen", "build_record", "dbgen.build_record", None),
    ("formred.dbgen", "write_db", "dbgen.write_db", _file_bytes),
    ("formred.dbgen", "read_db", "dbgen.read_db", None),
)
# Generators: one span per `next`, noting the rows of the chunk yielded.
CHUNK_HOOKS = (
    ("formred.dbgen", "_index_chunks", "dbgen.index_gen"),
)
# Calls counted, not spanned, while the named span is innermost: each shift
# is a few microseconds, so a span apiece would mostly time the tracer.
COUNT_HOOKS = (
    ("formred.reduce", "shift", "reduce.shift_descent", "reduce.shift_descent.shifts"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.absent = []
        self.op = -1
        self._stack = []

    # -- span recording ----------------------------------------------------

    def open(self, name):
        rec = [name, _clock(), 0.0, self._stack[-1] if self._stack else -1,
               self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec, note=None):
        rec[2] = _clock()
        rec[5] = note
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self.open(name)
        try:
            yield rec
        except BaseException as exc:
            self.close(rec, type(exc).__name__)
            raise
        self.close(rec)

    # -- hooks ---------------------------------------------------------------

    def _wrap_call(self, fn, name, note):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(rec, type(exc).__name__)
                raise
            tracer.close(rec, note(args, kwargs, result) if note else None)
            return result
        return traced

    def _wrap_chunks(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            chunks = fn(*args, **kwargs)
            while True:
                rec = tracer.open(name)
                try:
                    chunk = next(chunks)
                except StopIteration:
                    tracer.close(rec, 0)
                    return
                except BaseException as exc:
                    tracer.close(rec, type(exc).__name__)
                    raise
                tracer.close(rec, int(chunk.shape[0]))
                yield chunk
        return traced

    def _wrap_count(self, fn, within, counter):
        tracer = self

        def counted(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][0] == within:
                tracer.counts[counter] = tracer.counts.get(counter, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def _hooks(self):
        for mod, attr, name, note in SPAN_HOOKS:
            yield mod, attr, lambda fn, n=name, w=note: self._wrap_call(fn, n, w)
        for mod, attr, name in CHUNK_HOOKS:
            yield mod, attr, lambda fn, n=name: self._wrap_chunks(fn, n)
        for mod, attr, within, counter in COUNT_HOOKS:
            yield mod, attr, lambda fn, w=within, c=counter: \
                self._wrap_count(fn, w, c)

    @contextmanager
    def installed(self):
        """Rebind every hooked name for the duration of the block."""
        saved = []
        absent = []
        for mod_name, attr, make in self._hooks():
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                absent.append(f"{mod_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, make(fn))
        self.absent = absent
        try:
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")


def layer_metrics(tracer, rounds):
    """Per-layer figures per benchmark round (one form, or one pass of the
    database experiments), from the spans of the traced rounds."""
    spans = tracer.spans
    selfs = tracer.self_times()
    total_self, total_dur, calls, failed = {}, {}, {}, {}
    for rec, st in zip(spans, selfs):
        name = rec[0]
        total_self[name] = total_self.get(name, 0.0) + st
        total_dur[name] = total_dur.get(name, 0.0) + (rec[2] - rec[1])
        calls[name] = calls.get(name, 0) + 1
        if isinstance(rec[5], str):
            failed[name] = failed.get(name, 0) + 1

    def ms(name):
        return 1e3 * total_self.get(name, 0.0) / rounds

    def per_round(n):
        return n / rounds

    def share(num, den):
        return num / den if den else 0.0

    stage1 = {"hyperbolic": 0, "com": 0, "julia": 0}
    scale_calls = useful = 0
    rows = chunks = 0
    write_bytes = 0
    for rec in spans:
        name, parent, note = rec[0], rec[3], rec[5]
        if (name.startswith("reduce.reduce_") and note is None and parent >= 0
                and spans[parent][0] == "reduce.minimize"):
            stage1[name[len("reduce.reduce_"):]] += 1
        elif name == "reduce.scale_search":
            scale_calls += 1
            useful += note is True
        elif name == "dbgen.index_gen" and isinstance(note, int):
            rows += note
            chunks += note > 0
        elif name == "dbgen.write_db" and isinstance(note, int):
            write_bytes += note

    return {
        "forms.roots_upper.ms": ms("forms.roots_upper"),
        "forms.transform.ms": ms("forms.transform"),
        "forms.roots_escalated.count": per_round(calls.get("forms.roots_escalated", 0)),
        "forms.roots_escalated.ms":
            1e3 * total_dur.get("forms.roots_escalated", 0.0) / rounds,
        "forms.roots_escalated.time_share":
            share(total_dur.get("forms.roots_escalated", 0.0),
                  total_dur.get("forms.roots_upper", 0.0)),
        "reduce.scale_search.ms": ms("reduce.scale_search"),
        "reduce.scale_search.useful_share": share(useful, scale_calls),
        "reduce.shift_descent.ms": ms("reduce.shift_descent"),
        "reduce.shift_descent.shifts":
            per_round(tracer.counts.get("reduce.shift_descent.shifts", 0)),
        "reduce.stage1.hyperbolic": per_round(stage1["hyperbolic"]),
        "reduce.stage1.com": per_round(stage1["com"]),
        "reduce.stage1.julia": per_round(stage1["julia"]),
        "hyper.hyperbolic_centroid.ms": ms("hyper.hyperbolic_centroid"),
        "hyper.reduce_to_fundamental.ms": ms("hyper.reduce_to_fundamental"),
        "julia.minimize_theta0.ms": ms("julia.minimize_theta0"),
        "julia.minimize_theta0.calls": per_round(calls.get("julia.minimize_theta0", 0)),
        "julia.minimize_theta0.failed":
            per_round(failed.get("julia.minimize_theta0", 0)),
        "dbgen.index_gen.ms": ms("dbgen.index_gen"),
        "dbgen.rows": per_round(rows),
        "dbgen.chunks": per_round(chunks),
        "dbgen.shift_round.ms": ms("dbgen.shift_round"),
        "dbgen.expand_forms.ms": ms("dbgen.expand_forms"),
        "dbgen.shift_heights.ms": ms("dbgen.shift_heights"),
        "dbgen.centers.ms": ms("dbgen.centers"),
        "dbgen.build_record.ms": ms("dbgen.build_record"),
        "dbgen.write_db.ms": ms("dbgen.write_db"),
        "dbgen.write_db.bytes": per_round(write_bytes),
        "dbgen.read_db.ms": ms("dbgen.read_db"),
    }
