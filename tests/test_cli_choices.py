"""--tie and --region choices come from formred.dbgen; checked on the parser
alone, with the help text's choice lists spelled out."""

import pytest

from formred import cli, dbgen

TIE_COMMANDS = {
    "reduce": ["reduce", "--coeffs", "1,0,1"],
    "minimize": ["minimize", "--coeffs", "1,0,1"],
    "compare": ["compare", "--k", "3", "--r2", "4"],
}
REGION_COMMANDS = {
    "gen": ["gen", "--k", "3", "--r2", "4", "--no-store"],
    "compare": ["compare", "--k", "3", "--r2", "4"],
    "maxdist": ["maxdist", "--k", "3", "--r2", "4"],
}


def _help(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv[:1] + ["--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(TIE_COMMANDS))
def test_tie_choices_are_dbgen_tie_names(command, capsys):
    parser = cli.build_parser()
    argv = TIE_COMMANDS[command]
    assert "{up-2dp,away,even,zero,up}" in _help(parser, argv, capsys)
    for tie in dbgen.TIE_NAMES:
        assert parser.parse_args(argv + ["--tie", tie]).tie == tie
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv + ["--tie", "half-up"])
    assert exc.value.code == 1
    assert "--tie" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(REGION_COMMANDS))
def test_region_choices_are_dbgen_regions(command, capsys):
    parser = cli.build_parser()
    argv = REGION_COMMANDS[command]
    assert "{halfdisc-exclude-i,positive-re}" in _help(parser, argv, capsys)
    assert parser.parse_args(argv).region == dbgen.REGIONS[0]
    for region in dbgen.REGIONS:
        assert parser.parse_args(argv + ["--region", region]).region == region
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv + ["--region", "disc"])
    assert exc.value.code == 1
    assert "--region" in capsys.readouterr().err
