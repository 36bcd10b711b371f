"""The public surface of the package, pinned as literals.

A name or an option added here should have a caller outside the tests;
one that only tests use belongs in `helpers.py` instead.
"""

import inspect
import types

import genreach

PUBLIC_NAMES = [
    "Arena",
    "AttractorResult",
    "BudgetExceededError",
    "COLOR_OBS",
    "DEFAULT_COLOR_CAP",
    "FULL_CLASS",
    "FiniteMemoryStrategy",
    "FlowerRefutation",
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
    "Reason",
    "SimOutcome",
    "SolveResult",
    "StrategyPartialError",
    "TwoSatFormula",
    "TwoSatResult",
    "UnsupportedInputError",
    "VerifyResult",
    "attractor",
    "avoid_moves",
    "canonical_flower_eve",
    "compress_adam",
    "dump_strategy",
    "eval_qbf_bruteforce",
    "export_dot",
    "flower_adversary",
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
    "simulate",
    "solve_fpt",
    "solve_oneplayer_size2",
    "solve_opponent_player",
    "solve_singleton",
    "strategy_from_json",
    "strategy_to_json",
    "subset_memory",
    "trace_play",
    "two_sat_solve",
    "validate_arena",
    "verify_strategy",
]

# Parameters with a default, per public function that has any.
DEFAULTED_PARAMETERS = {
    "eval_qbf_bruteforce": ["cap"],
    "export_dot": ["result"],
    "min_memory_search": ["machine_class", "budget", "on_refuted"],
    "minimax_oracle": ["budget"],
    "solve_fpt": ["cap"],
    "strategy_to_json": ["start"],
}


def public_names():
    return sorted(
        name
        for name, value in vars(genreach).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def test_public_names():
    assert public_names() == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 61


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
    assert sum(map(len, found.values())) == 8
