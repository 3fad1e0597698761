"""The option surface of every subcommand, read from build_parser(): option
strings, defaults, choices, whether required, and the type converter.  A
regrouping of the parser (shared parent parsers, defaults read from
formred.dbgen) must leave every entry here as it is."""

import argparse

from formred import cli

TIES = ("up-2dp", "away", "even", "zero", "up")
REGIONS = ("halfdisc-exclude-i", "positive-re")
JSON = {"--json": (argparse.SUPPRESS, None, False, None)}
HELP = {"--help": (argparse.SUPPRESS, None, False, None)}
DB = {
    "--k": (None, None, True, "int"),
    "--r2": (None, None, True, "int"),
    "--region": ("halfdisc-exclude-i", REGIONS, False, None),
    "--workers": (1, None, False, "_workers"),
}
FORM = {
    "--coeffs": (None, None, True, None),
    "--tie": ("away", TIES, False, None),
}

# option -> (default, choices, required, type name)
SURFACE = {
    "gen": {**JSON, **HELP, **DB,
            "--out": (None, None, False, None),
            "--no-store": (False, None, False, None)},
    "reduce": {**JSON, **HELP, **FORM,
               "--method": ("hyperbolic", ("julia", "hyperbolic", "com"),
                            False, None)},
    "minimize": {**JSON, **HELP, **FORM,
                 "--patience": (3, None, False, "int"),
                 "--scale-bound": (64, None, False, "int")},
    "compare": {**JSON, **HELP, **DB,
                "--tie": ("up-2dp", TIES, False, None),
                "--out": (None, None, False, None)},
    "maxdist": {**JSON, **HELP, **DB,
                "--metric": ("euclidean", ("euclidean", "hyperbolic"),
                             False, None),
                "--scope": ("positive-re", ("positive-re", "all"), False, None),
                "--scan-u": ("mean-y", ("mean-y", "definition"), False, None)},
    "quad": {**JSON, **HELP,
             "--reduce": (None, None, False, None),
             "--enumerate-disc": (None, None, False, "int"),
             "--primitive-only": (False, None, False, None)},
}


def _surface(parser) -> dict:
    out = {}
    for action in parser._actions:
        if not action.option_strings:
            continue
        choices = None if action.choices is None else tuple(action.choices)
        kind = getattr(action.type, "__name__", None)
        out[action.option_strings[-1]] = (action.default, choices,
                                          action.required, kind)
    return out


def _subparsers(parser) -> dict:
    (sub,) = (a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_top_level_surface():
    parser = cli.build_parser()
    assert _surface(parser) == {"--json": (False, None, False, None),
                                "--help": (argparse.SUPPRESS, None, False,
                                           None)}
    assert list(_subparsers(parser)) == list(SURFACE)


def test_every_subcommand_keeps_its_options():
    for name, sub in _subparsers(cli.build_parser()).items():
        assert _surface(sub) == SURFACE[name], name


def test_quad_needs_exactly_one_action():
    quad = _subparsers(cli.build_parser())["quad"]
    (group,) = quad._mutually_exclusive_groups
    assert group.required
    assert sorted(a.option_strings[0] for a in group._group_actions) == [
        "--enumerate-disc", "--reduce"]
