"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload db-scan --seeds 1-10

For every metric it prints the median of the runs, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread: the
distance between the quartiles as a share of the median.  Runs are made one
after another, each in its own process; the summary is also written to
perfbench/out/spread-<workload>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    walls = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        walls.append(time.perf_counter() - t0)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
            sys.exit(f"seed {seed}: exit code {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {walls[-1]:.1f} s wall, "
              f"attempted {result['attempted']}, failed {result['failed']}",
              flush=True)

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name), "values": vals}
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:34s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:7.4f}  {flag}")
    print(f"wall per run: median {statistics.median(walls):.1f} s, "
          f"max {max(walls):.1f} s")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"spread-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                    "walls": walls, "metrics": summary}, indent=1),
        encoding="utf-8")


if __name__ == "__main__":
    main()
