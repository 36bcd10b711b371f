"""Solvers, strategy tooling, and generators for games where one player
must visit every one of several vertex sets."""

__version__ = "0.1.0"

from .attractor import (
    AttractorResult,
    attractor,
    avoid_moves,
    solve_opponent_player,
)
from .errors import (
    BudgetExceededError,
    GameParseError,
    GenReachError,
    StrategyPartialError,
    UnsupportedInputError,
)
from .fileformat import export_dot, parse_game, serialize_game
from .generate import (
    GenParams,
    canonical_flower_eve,
    gen_fig4,
    gen_fig5,
    gen_flower,
    gen_picker,
    gen_random,
    generate,
)
from .lab import (
    COLOR_OBS,
    FULL_CLASS,
    FlowerRefutation,
    MinMemResult,
    Reason,
    SimOutcome,
    VerifyResult,
    flower_adversary,
    min_memory_search,
    minimax_oracle,
    simulate,
    verify_strategy,
)
from .model import (
    DEFAULT_COLOR_CAP,
    Arena,
    Game,
    Objective,
    Owner,
    Play,
    trace_play,
    validate_arena,
)
from .product import compress_adam, solve_fpt, subset_memory
from .qbf import QBFFormula, eval_qbf_bruteforce, parse_qdimacs, qbf_to_game
from .strategies import (
    FiniteMemoryStrategy,
    MemoryStructure,
    SolveResult,
    dump_strategy,
    identity_memory,
    load_strategy,
    strategy_from_json,
    strategy_to_json,
)
from .subclasses import (
    TwoSatFormula,
    TwoSatResult,
    parse_dimacs_cnf2,
    solve_oneplayer_size2,
    solve_singleton,
    two_sat_solve,
)
