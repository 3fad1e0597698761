"""Self-test of the benchmark: `python3 -m pytest -q perfbench`.

Runs every workload at tiny sizes, untraced and traced, and checks that the
output checks reject tampered results.
"""

import json
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import formred  # noqa: E402
import numpy  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from formred import (CompareStats, LatticeConfig, UhpPoint,  # noqa: E402
                     UnimodularMatrix, from_upper_roots, generate_records,
                     minimize, read_db, reduce_julia, write_db)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"] for m in wanted} == set(result["metrics"])
    if trace:
        assert result["metrics"]["trace.absent_hooks"]["value"] == 0


def test_run_refuses_without_sources(tmp_path):
    """With only BENCHMARK.json and perfbench/ present, the run fails and
    prints no result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for p in HERE.iterdir():
        if p.is_file():
            (bench / p.name).write_bytes(p.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "db-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.fixture(scope="module")
def reports():
    """A shifted and scaled minimize report, and a Julia one."""
    roots = ((1, 5), (1, 6), (2, 6), (3, 3), (6, 1))
    f = from_upper_roots([UhpPoint(x, y) for x, y in roots])
    rep = minimize(f)
    assert rep.matrix != UnimodularMatrix.identity() and rep.scale != 1
    return f, rep, reduce_julia(f)


def test_certificate_accepts_real_reports(reports):
    f, rep, jrep = reports
    assert checks.certificate_error(f.coeffs, rep) is None
    assert checks.certificate_error(f.coeffs, jrep) is None


def test_certificate_rejects_wrong_matrix(reports):
    f, rep, _ = reports
    tampered = replace(rep, matrix=rep.matrix @ UnimodularMatrix.translation(1))
    assert checks.certificate_error(f.coeffs, tampered) is not None


def test_certificate_rejects_wrong_scale(reports):
    f, rep, _ = reports
    tampered = replace(rep, scale=rep.scale * Fraction(2))
    assert checks.certificate_error(f.coeffs, tampered) is not None


def test_certificate_rejects_wrong_heights(reports):
    f, rep, _ = reports
    assert checks.certificate_error(
        f.coeffs, replace(rep, output_height=rep.output_height - 1)) is not None
    assert checks.certificate_error(
        (1,) + f.coeffs[1:-1] + (5,), rep) is not None


def test_bucket_check_rejects_wrong_count():
    expected = (11_628, 2_367, 797, 8_464)
    assert checks.compare_error(CompareStats(*expected), expected) is None
    off = CompareStats(11_628, 2_368, 796, 8_464)
    assert checks.compare_error(off, expected) is not None


def test_roundtrip_check(tmp_path):
    records = list(generate_records(LatticeConfig(r2=3, kgon=3)))
    path = tmp_path / "db.jsonl"
    write_db(records, path)
    back = read_db(path)
    assert checks.roundtrip_error(records, back) is None
    back[5] = replace(back[5], coeffs=back[5].coeffs[:-1] + (back[5].coeffs[-1] + 1,))
    assert checks.roundtrip_error(records, back) is not None


def test_mixed_classes():
    """The shares sum to 1, and totally real forms have 3 to 6 distinct
    real roots."""
    assert sum(share for _, share, _ in workloads.MIXED_CLASSES) == \
        pytest.approx(1)
    rng = random.Random(0)
    for _ in range(50):
        roots = numpy.roots(workloads._totally_real(rng))
        assert 3 <= len(roots) <= 6
        assert abs(roots.imag).max() < 1e-6
        assert numpy.diff(numpy.sort(roots.real)).min() > 1e-6


def test_pinned_outcomes_split_the_pool():
    """outcomes.json matches the population; forms pinned as crashing are
    probed apart, and the rounds expect only `ok` or a pinned refusal."""
    wl = run.FormWorkload(formred, "mixed-forms", 1, workloads.FULL)
    assert wl.probe and len(wl.items) + len(wl.probe) == 1200
    assert all(set(expected.values()) <= {"domain_error"}
               for _, _, expected in wl.items)
    assert all("crash" in expected.values() for _, _, expected in wl.probe)


def test_call_worse_than_pinned_fails(reports):
    f, _, _ = reports
    wl = run.FormWorkload(formred, "pentagon-db", 1, workloads.TINY)
    real_lt3 = formred.BinaryForm((1, -3, 2))  # roots 1 and 2
    for form, expected, failed in ((f, {}, 0),
                                   (real_lt3, {"minimize": "domain_error"}, 0),
                                   (real_lt3, {}, 1)):
        r = run.Run()
        wl.reduce_form(form, r, None, expected)
        assert r.failed == failed
