"""--workers bounds, checked on the parser alone so no worker process starts."""

import pytest

from formred import cli

BASE = {
    "gen": ["gen", "--k", "3", "--r2", "4", "--no-store"],
    "compare": ["compare", "--k", "3", "--r2", "4"],
    "maxdist": ["maxdist", "--k", "3", "--r2", "4"],
}


@pytest.mark.parametrize("command", sorted(BASE))
def test_workers_rejected_below_one(command, capsys):
    # and non-integers, with a message that names the option, not the
    # parsing function
    parser = cli.build_parser()
    for bad, why in (("0", "must be at least 1, got 0"),
                     ("-3", "must be at least 1, got -3"),
                     ("two", "must be an integer, got 'two'"),
                     ("1.5", "must be an integer, got '1.5'"),
                     ("", "must be an integer, got ''")):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(BASE[command] + ["--workers", bad])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"argument --workers: {why}" in err and "_workers" not in err
