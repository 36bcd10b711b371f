"""The public surface of the package, pinned as literals.

A name or an option added here should have a caller outside the tests;
one that only tests use belongs in `helpers.py` instead.
"""

import argparse
import inspect
import types

import genreach
from genreach import cli

PUBLIC_NAMES = [
    "Arena",
    "AttractorResult",
    "BudgetExceededError",
    "COLOR_OBS",
    "FULL_CLASS",
    "FiniteMemoryStrategy",
    "Game",
    "GameParseError",
    "GenParams",
    "GenReachError",
    "MemoryStructure",
    "MinMemResult",
    "Objective",
    "Owner",
    "Play",
    "QBFFormula",
    "SolveResult",
    "StrategyPartialError",
    "TwoSatFormula",
    "TwoSatResult",
    "UnsupportedInputError",
    "VerifyResult",
    "attractor",
    "compress_adam",
    "dump_strategy",
    "eval_qbf_bruteforce",
    "export_dot",
    "gen_fig4",
    "gen_fig5",
    "gen_flower",
    "gen_picker",
    "gen_random",
    "generate",
    "identity_memory",
    "load_strategy",
    "min_memory_search",
    "minimax_oracle",
    "parse_dimacs_cnf2",
    "parse_game",
    "parse_qdimacs",
    "qbf_to_game",
    "serialize_game",
    "solve_fpt",
    "solve_oneplayer_size2",
    "solve_opponent_player",
    "solve_singleton",
    "strategy_from_json",
    "strategy_to_json",
    "trace_play",
    "two_sat_solve",
    "validate_arena",
    "verify_strategy",
]

# Parameters with a default, per public function that has any.
DEFAULTED_PARAMETERS = {
    "export_dot": ["result"],
    "min_memory_search": ["machine_class", "budget", "on_refuted"],
    "minimax_oracle": ["budget"],
}

# Options per command of `cli.build_parser()`, without -h/--help.
CLI_OPTIONS = {
    "genreach": ["--version"],
    "genreach solve": ["--method", "--json", "--dot", "--emit-strategies", "--budget"],
    "genreach qbf": ["--via", "--json"],
    "genreach gen flower": ["-o", "--output", "--k"],
    "genreach gen picker": ["-o", "--output", "--k"],
    "genreach gen fig4": ["-o", "--output", "--k"],
    "genreach gen fig5": ["-o", "--output"],
    "genreach gen random": [
        "-o", "--output", "--k", "--n", "--density", "--eve-ratio",
        "--color-min", "--color-max", "--seed",
    ],
    "genreach verify": ["--region", "--json"],
    "genreach minmem": ["--player", "--bound", "--class", "--budget", "--json"],
    "genreach twosat": ["--json"],
}


def public_names():
    return sorted(
        name
        for name, value in vars(genreach).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def test_public_names():
    assert public_names() == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 52


def test_defaulted_parameters_of_public_functions():
    found = {}
    for name in public_names():
        value = getattr(genreach, name)
        if inspect.isfunction(value):
            defaulted = [
                p.name
                for p in inspect.signature(value).parameters.values()
                if p.default is not inspect.Parameter.empty
            ]
            if defaulted:
                found[name] = defaulted
    assert found == DEFAULTED_PARAMETERS
    assert sum(map(len, found.values())) == 5


def cli_options(parser, command="genreach", found=None):
    found = {} if found is None else found
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                cli_options(sub, f"{command} {name}", found)
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            found.setdefault(command, []).extend(action.option_strings)
    return found


def test_cli_options():
    assert cli_options(cli.build_parser()) == CLI_OPTIONS
