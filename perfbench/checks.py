"""Output checks and outcome classes.

The certificate is recomputed here with plain integer arithmetic instead of
the library's own `transform`/`primitive`/`height`, so a fault in those
shows up as a `wrong` outcome instead of vouching for itself.
"""

from __future__ import annotations

import math

OUTCOMES = ("ok", "domain_error", "crash", "wrong")


def _substitute(coeffs, a, b, c, d):
    """Coefficients of f(a*x + b*y, c*x + d*y), descending in x."""
    n = len(coeffs) - 1

    def powers(p, q):
        out = [[1]]
        for _ in range(n):
            prev = out[-1]
            nxt = [0] * (len(prev) + 1)
            for i, v in enumerate(prev):
                nxt[i] += v * p
                nxt[i + 1] += v * q
            out.append(nxt)
        return out

    row, col = powers(a, b), powers(c, d)
    out = [0] * (n + 1)
    for i, ci in enumerate(coeffs):
        if ci == 0:
            continue
        left, right = row[n - i], col[i]
        for j, lv in enumerate(left):
            for k, rv in enumerate(right):
                out[j + k] += ci * lv * rv
    return out


def _primitive(coeffs):
    g = 0
    for v in coeffs:
        g = math.gcd(g, v)
    out = [v // g for v in coeffs]
    lead = next(v for v in out if v != 0)
    return tuple(-v for v in out) if lead < 0 else tuple(out)


def certificate_error(coeffs, report):
    """None when `report` is a valid reduction of the form `coeffs`, else the
    reason.  Valid means

        primitive(scale_lambda(transform(input, matrix))) == output

    with output_height == height(output) <= input_height == height(input),
    where scale_lambda substitutes x -> lambda*x and clears denominators."""
    coeffs = tuple(coeffs)
    if tuple(report.input.coeffs) != coeffs:
        return "report input is not the form sent"
    M = report.matrix
    if M.a * M.d - M.b * M.c != 1:
        return "matrix determinant is not 1"
    lam = report.scale
    if lam <= 0:
        return "scale is not positive"
    n = len(coeffs) - 1
    u, v = lam.numerator, lam.denominator
    image = _substitute(coeffs, M.a, M.b, M.c, M.d)
    image = [ci * u ** (n - i) * v ** i for i, ci in enumerate(image)]
    if not any(image):
        return "certificate image is the zero form"
    output = tuple(report.output.coeffs)
    if _primitive(image) != output:
        return "primitive(scale(transform(input, matrix))) != output"
    h_out = max(abs(c) for c in output)
    h_in = max(abs(c) for c in _primitive(coeffs))
    if report.output_height != h_out:
        return "output_height is not the height of the output"
    if report.input_height != h_in:
        return "input_height is not the height of the input"
    if h_out > h_in:
        return "output height exceeds input height"
    return None


def compare_error(stats, expected):
    got = (stats.total, stats.hyperbolic_wins, stats.julia_wins, stats.same)
    if got != tuple(expected):
        return f"compare buckets {got} != {tuple(expected)}"
    return None


def maxdist_error(record, witness):
    if tuple(record.roots) != tuple(witness):
        return f"max-distance witness {record.roots} != {witness}"
    return None


def julia_report_error(report, expected):
    got = (report["differ"], report["total"])
    if got != tuple(expected):
        return f"julia-vs-com (differ, total) {got} != {tuple(expected)}"
    return None


def roundtrip_error(written, read_back):
    """read_db(write_db(records)) must give the records back: roots and
    coefficients exactly, the two centers as the 6-decimal values the JSONL
    format stores."""
    if len(written) != len(read_back):
        return f"read {len(read_back)} records, wrote {len(written)}"
    for i, (w, r) in enumerate(zip(written, read_back)):
        if w.roots != r.roots or w.coeffs != r.coeffs:
            return f"record {i}: roots or coefficients changed"
        for a, b in zip(w.com + w.hyp, r.com + r.hyp):
            if float(f"{a:.6f}") != b:
                return f"record {i}: center {a} read back as {b}"
    return None


class Outcomes:
    """Outcome counts per operation kind, plus the first failure messages."""

    def __init__(self):
        self.counts = {}
        self.examples = []

    def add(self, kind, outcome, detail=None):
        per_kind = self.counts.setdefault(kind, dict.fromkeys(OUTCOMES, 0))
        per_kind[outcome] += 1
        line = f"{kind} {outcome}: {detail}"
        if (detail and outcome in ("crash", "wrong") and len(self.examples) < 20
                and line not in self.examples):
            self.examples.append(line)

    def total(self, outcome=None):
        return sum(c[outcome] if outcome else sum(c.values())
                   for c in self.counts.values())
