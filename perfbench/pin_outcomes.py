"""Pin the outcome each mixed-forms input gets from the library today.

    python3 perfbench/pin_outcomes.py

Sends every form of the fixed mixed-forms population
(`workloads.mixed_population`) to `minimize` and to `reduce_julia` once,
and writes perfbench/outcomes.json: the population's digest and, for each
form with a call that does not end `ok`, that call's outcome.  `run.py`
refuses a file pinned for another population, so rerun this after changing
the population's generators.  It exits non-zero, writing nothing, when a
call ends `wrong`.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads


def main():
    fr = run.import_library()
    population = workloads.mixed_population(fr)
    forms, wrong, counts = {}, [], {}
    t0 = time.perf_counter()
    for cls, members in population.items():
        for i, f in enumerate(members):
            for kind in run.FORM_CALLS:
                outcome, detail, _ = run.call_form(fr, kind, f)
                key = f"{kind}[{cls}]"
                counts.setdefault(key, dict.fromkeys(run.checks.OUTCOMES, 0))
                counts[key][outcome] += 1
                if outcome == "wrong":
                    wrong.append(f"{cls}/{i} {kind}: {f.coeffs}: {detail}")
                elif outcome != "ok":
                    forms.setdefault(f"{cls}/{i}", {})[kind] = outcome
    for key, c in sorted(counts.items()):
        print(f"{key:34s} " + " / ".join(str(c[o]) for o in run.checks.OUTCOMES))
    print(f"{time.perf_counter() - t0:.1f} s")
    if wrong:
        print("\n".join(wrong[:20]))
        sys.exit("pin_outcomes.py: calls ended wrong; nothing written")
    # one form a line, so that a re-pin diffs line by line
    lines = [f"  {json.dumps(key)}: {json.dumps(forms[key], sort_keys=True)}"
             for key in sorted(forms)]
    run.OUTCOMES_FILE.write_text(
        f'{{"population_digest": "{run.population_digest(population)}",\n'
        ' "forms": {\n' + ",\n".join(lines) + "\n}}\n", encoding="utf-8")
    print(f"wrote {run.OUTCOMES_FILE.name}: {len(forms)} forms")


if __name__ == "__main__":
    main()
