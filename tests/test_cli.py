import json

import pytest

import formred.cli
from formred import ConvergenceError
from formred.cli import main

TRIANGLE = "1,-44,1325,-32280,480964,-5809376,47831060"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reduce_hyperbolic_json(capsys):
    code, out, _ = run(capsys, "--json", "reduce", "--coeffs", TRIANGLE,
                       "--method", "hyperbolic")
    assert code == 0
    obj = json.loads(out)
    assert obj["output_height"] == 1_807_810
    assert obj["matrix"] == [[1, 17], [0, 1]]
    # --json is accepted after the subcommand as well
    code, out2, _ = run(capsys, "reduce", "--coeffs", TRIANGLE,
                        "--method", "hyperbolic", "--json")
    assert code == 0 and out2 == out


def test_reduce_com_and_julia(capsys):
    code, out, _ = run(capsys, "--json", "reduce", "--coeffs", TRIANGLE,
                       "--method", "com")
    assert code == 0 and json.loads(out)["output_height"] == 22_220_090
    code, out, _ = run(capsys, "--json", "reduce", "--coeffs", TRIANGLE,
                       "--method", "julia")
    assert code == 0 and json.loads(out)["output_height"] < 47_831_060


def test_minimize(capsys):
    code, out, _ = run(capsys, "--json", "minimize", "--coeffs", TRIANGLE)
    assert code == 0
    assert json.loads(out)["output_height"] == 447_809


def test_quad_enumerate(capsys):
    code, out, _ = run(capsys, "--json", "quad", "--enumerate-disc", "23")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 3
    assert obj["forms"] == [[1, 1, 6], [2, 1, 3], [2, -1, 3]]


def test_quad_reduce(capsys):
    code, out, _ = run(capsys, "--json", "quad", "--reduce", "2,4,5")
    assert code == 0
    obj = json.loads(out)
    assert obj["reduced"] == [2, 0, 3]
    assert obj["discriminant"] == -24


def test_maxdist_and_compare_small(capsys, tmp_path):
    code, out, _ = run(capsys, "--json", "maxdist", "--k", "3", "--r2", "4")
    assert code == 0
    assert "roots" in json.loads(out)

    stats_path = tmp_path / "stats.json"
    code, out, _ = run(capsys, "--json", "compare", "--k", "3", "--r2", "4",
                       "--out", str(stats_path))
    assert code == 0
    obj = json.loads(out)
    assert obj["total"] == 969
    assert obj["total"] == obj["hyperbolic"] + obj["julia"] + obj["same"]
    assert json.loads(stats_path.read_text()) == obj


def test_gen_and_no_store(capsys, tmp_path):
    db = tmp_path / "out.jsonl"
    code, out, _ = run(capsys, "--json", "gen", "--k", "2", "--r2", "3",
                       "--out", str(db))
    assert code == 0
    assert json.loads(out)["count"] == 45
    assert len(db.read_text().splitlines()) == 45

    code, out, _ = run(capsys, "--json", "gen", "--k", "3", "--r2", "20",
                       "--no-store")
    assert code == 0
    obj = json.loads(out)
    assert obj["points"] == 607 and obj["count"] == 37_090_735


def test_gen_empty_database(capsys, tmp_path):
    # k above the point count: the empty database, written as such
    db = tmp_path / "out.jsonl"
    code, out, _ = run(capsys, "--json", "gen", "--k", "4", "--r2", "2",
                       "--out", str(db))
    assert code == 0
    assert json.loads(out)["count"] == 0 and db.read_text() == ""
    code, out, _ = run(capsys, "--json", "gen", "--k", "4", "--r2", "2",
                       "--no-store")
    assert code == 0 and json.loads(out)["count"] == 0


def test_byte_identical_output_across_runs_and_workers(capsys):
    outs = set()
    for workers in ("1", "3", "1"):
        code, out, _ = run(capsys, "--json", "compare", "--k", "3", "--r2",
                           "4", "--workers", workers)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_exit_codes(capsys, monkeypatch, tmp_path):
    # usage error: unknown flag
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--bogus"])
    assert exc.value.code == 1
    # usage error: missing subcommand
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    # domain error: hyperbolic reduction with real roots
    code, _, err = run(capsys, "reduce", "--coeffs", "1,0,-2",
                       "--method", "hyperbolic")
    assert code == 3 and "domain" in err
    # domain error: degenerate julia input
    code, _, _ = run(capsys, "reduce", "--coeffs", "1,0,-2", "--method",
                     "julia")
    assert code == 3
    # bad coefficients are a domain error as well
    code, _, _ = run(capsys, "reduce", "--coeffs", "0,0", "--method", "com")
    assert code == 3
    # a ValueError of the library is a usage error
    code, _, err = run(capsys, "compare", "--k", "3", "--r2", "1")
    assert code == 1 and "r2 must be at least 2" in err
    # minimize of a degree-1 form is a domain error, as every other refusal
    code, _, err = run(capsys, "minimize", "--coeffs", "1,2")
    assert code == 3 and "degree >= 2" in err
    # an unwritable --out is one error line, not a traceback
    missing = str(tmp_path / "missing")
    for argv in (("gen", "--k", "3", "--r2", "3", "--out"),
                 ("compare", "--k", "3", "--r2", "3", "--out")):
        code, _, err = run(capsys, *argv, missing + "/x.json")
        assert code == 1
        assert err.startswith("formred: error: ") and err.count("\n") == 1
        assert missing in err

    # numeric non-convergence
    def no_convergence(*args, **kwargs):
        raise ConvergenceError("stub")

    monkeypatch.setattr(formred.cli, "minimize", no_convergence)
    code, _, err = run(capsys, "minimize", "--coeffs", "1,0,1")
    assert code == 2 and "did not converge: stub" in err


def test_help_texts():
    from formred.cli import build_parser
    parser = build_parser()
    for sub in ("gen", "reduce", "minimize", "compare", "maxdist", "quad"):
        # every subcommand documents itself
        assert sub in parser.format_help()


def test_human_output_floats(capsys):
    code, out, _ = run(capsys, "reduce", "--coeffs", TRIANGLE,
                       "--method", "com")
    assert code == 0
    assert "output_height: 22220090" in out
