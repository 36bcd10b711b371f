"""Memory structures, finite-memory strategies and their JSON form."""

import hashlib
import json
import random

import pytest

from genreach import (
    FULL_CLASS,
    FiniteMemoryStrategy,
    GenParams,
    MemoryStructure,
    Owner,
    SolveResult,
    StrategyPartialError,
    compress_adam,
    dump_strategy,
    gen_random,
    identity_memory,
    load_strategy,
    min_memory_search,
    parse_game,
    qbf_to_game,
    solve_fpt,
    solve_oneplayer_size2,
    solve_opponent_player,
    solve_singleton,
    strategy_from_json,
    strategy_to_json,
    verify_strategy,
)
from genreach.product import _solve_sweep
from genreach.qbf import QBFFormula
from helpers import FOLD_TEXT, random_game

E, A = Owner.EVE, Owner.ADAM


def test_memory_structure_initial_forms():
    per_vertex = MemoryStructure(2, {0: 0, 3: 1}, lambda s, u, v: s)
    assert per_vertex.initial_state(3) == 1
    with pytest.raises(StrategyPartialError, match="start vertex 1"):
        per_vertex.initial_state(1)


def test_memory_from_table_defaults_to_stay():
    mem = MemoryStructure.from_table(3, {0: 0}, {(0, 1, 2): 2})
    assert mem.update(0, 1, 2) == 2
    assert mem.update(0, 2, 1) == 0
    assert mem.update(1, 1, 2) == 1


def test_identity_memory():
    mem = identity_memory([5, 2])
    assert mem.states == 1
    assert mem.initial == {5: 0, 2: 0}
    assert mem.update(0, 3, 4) == 0


def test_move_fallback(demo):
    arena = demo.arena
    strict = FiniteMemoryStrategy(E, identity_memory([demo.init]), {})
    with pytest.raises(StrategyPartialError, match="no move for vertex 'c'"):
        strict.move(arena, arena.index_of("c"), 0)
    # Single-successor vertices never need a table entry.
    assert strict.move(arena, arena.index_of("d"), 0) == arena.index_of("d")


def test_json_round_trip(demo):
    solved = solve_fpt(demo)
    doc = strategy_to_json(demo.arena, solved.eve_strategy)
    assert doc["player"] == "eve"
    assert {"vertex", "state", "successor"} <= set(doc["moves"][0])

    loaded = strategy_from_json(demo.arena, doc)
    check = verify_strategy(demo, loaded, [demo.init])
    assert check.winning


def test_json_round_trip_text_form(demo):
    solved = solve_fpt(demo)
    text = dump_strategy(demo.arena, solved.eve_strategy)
    doc = json.loads(text)
    assert text == json.dumps(doc, separators=(",", ":")) + "\n"
    # Files written indented, the earlier form, read the same.
    for form in (text, json.dumps(doc, indent=2) + "\n"):
        loaded = load_strategy(demo.arena, form)
        assert verify_strategy(demo, loaded, [demo.init]).winning
        assert strategy_to_json(demo.arena, loaded) == doc


def test_json_per_vertex_initial(demo):
    mem = MemoryStructure(2, {0: 0, 1: 1}, lambda s, u, v: s)
    sigma = FiniteMemoryStrategy(E, mem, {})
    doc = strategy_to_json(demo.arena, sigma)
    assert doc["initial"] == {"per_vertex": {"c": 0, "a": 1}}
    loaded = strategy_from_json(demo.arena, doc)
    assert loaded.memory.initial_state(1) == 1


def test_json_only_keeps_reachable_entries(demo):
    # A two-state memory that never leaves state 0 from c serializes
    # without any state-1 move rows.
    mem = MemoryStructure(2, {demo.init: 0}, lambda s, u, v: s)
    sigma = FiniteMemoryStrategy(E, mem, {(0, 0): 1, (0, 1): 3})
    doc = strategy_to_json(demo.arena, sigma)
    assert doc["moves"] and all(entry["state"] == 0 for entry in doc["moves"])
    assert doc["update"] == []


# Per subclass solver, the random games it accepts.
SUBCLASS = {
    solve_singleton: {"color_size": (1, 1)},
    solve_opponent_player: {"eve_ratio": 0.0},
    solve_oneplayer_size2: {"eve_ratio": 1.0},
}
REGION_CASES = [
    *((solve_fpt, name) for name in ("demo", "fig5", "flower2")),
    *((solve_fpt, seed) for seed in range(24)),
    *((solver, seed) for solver in SUBCLASS for seed in range(24)),
]


def _case_id(solver, case):
    if isinstance(case, str):
        return case
    prefix = "" if solver is solve_fpt else f"{solver.__name__}-"
    return f"{prefix}random{case}"


@pytest.mark.parametrize(
    "solver, case", REGION_CASES, ids=[_case_id(*c) for c in REGION_CASES]
)
def test_solver_strategies_start_on_their_region_and_files_hold_no_guesses(
    request, solver, case
):
    if isinstance(case, str):
        game = request.getfixturevalue(case)
    elif solver is solve_fpt:
        game = random_game(case, n=6 + case % 7, k=1 + case % 4, density=0.35)
    else:
        game = random_game(
            case, n=6 + case % 7, k=case % 4, density=0.35, **SUBCLASS[solver]
        )
    arena = game.arena
    solved = solver(game)
    for strategy, region in (
        (solved.eve_strategy, solved.eve_region),
        (solved.adam_strategy, solved.adam_region),
    ):
        if strategy is None:
            continue
        assert set(strategy.memory.initial) == region
        doc = strategy_to_json(arena, strategy)
        for row in doc["moves"]:
            v = arena.index_of(row["vertex"])
            w = arena.index_of(row["successor"])
            assert strategy.moves.get((v, row["state"])) == w or arena.succ[v] == (w,)
        loaded = strategy_from_json(arena, doc)
        assert verify_strategy(game, loaded, region).winning


def test_from_json_rejects_bad_documents(demo):
    solved = solve_fpt(demo)
    good = strategy_to_json(demo.arena, solved.eve_strategy)

    bad = dict(good, states=0)
    with pytest.raises(ValueError, match="at least one memory state"):
        strategy_from_json(demo.arena, bad)

    bad = dict(good, moves=[{"vertex": "a", "state": 0, "successor": "b"}])
    with pytest.raises(ValueError, match="does not own"):
        strategy_from_json(demo.arena, bad)

    bad = dict(good, moves=[{"vertex": "c", "state": 0, "successor": "c"}])
    with pytest.raises(ValueError, match="not an edge"):
        strategy_from_json(demo.arena, bad)

    bad = dict(good, update=[{"state": 9, "from": "c", "to": "a", "next_state": 0}])
    with pytest.raises(ValueError, match="out of range"):
        strategy_from_json(demo.arena, bad)

    bad = dict(good, moves=[{"vertex": "zz", "state": 0, "successor": "a"}])
    with pytest.raises(KeyError):
        strategy_from_json(demo.arena, bad)

    with pytest.raises(ValueError, match="malformed strategy document"):
        strategy_from_json(demo.arena, {"player": "eve"})


def test_from_json_rejects_bad_entries(demo):
    # demo's Eve memory has three states; d -> c is not an edge.
    good = strategy_to_json(demo.arena, solve_fpt(demo).eve_strategy)
    update = {"state": 0, "from": "c", "to": "a", "next_state": 1}
    move = {"vertex": "c", "state": 0, "successor": "a"}
    cases = [
        ("update", dict(update, to="c", **{"from": "d"}), ValueError,
         r"update on \(d, c\), which is not an edge"),
        ("update", dict(update, state=True), ValueError, "memory state True is not a JSON integer"),
        ("update", dict(update, state=1.5), ValueError, "memory state 1.5 is not a JSON integer"),
        ("update", dict(update, next_state=3), ValueError, r"memory state 3 out of range 0\.\.2"),
        ("update", dict(update, next_state=True), ValueError, "memory state True is not a JSON"),
        ("update", dict(update, **{"from": "zz"}), KeyError, "no vertex named 'zz'"),
        ("update", dict(update, to="zz"), KeyError, "no vertex named 'zz'"),
        ("moves", dict(move, state=True), ValueError, "memory state True is not a JSON integer"),
        ("moves", dict(move, state=1.5), ValueError, "memory state 1.5 is not a JSON integer"),
        ("moves", dict(move, state=-1), ValueError, r"memory state -1 out of range 0\.\.2"),
        ("moves", dict(move, successor="zz"), KeyError, "no vertex named 'zz'"),
        # Of two faults in one move, the first in the order vertex,
        # successor, owner, edge, state is named.
        ("moves", dict(move, vertex="zz", state=-1), KeyError, "no vertex named 'zz'"),
        ("moves", dict(move, vertex="d", successor="c"), ValueError, "'d', which eve does not own"),
        ("moves", dict(move, successor="c", state=-1), ValueError, r"move \(c, c\) is not an edge"),
    ]
    for key, entry, error, message in cases:
        with pytest.raises(error, match=message):
            strategy_from_json(demo.arena, dict(good, **{key: [entry]}))
    bad = dict(good, initial={"per_vertex": {"c": True}})
    with pytest.raises(ValueError, match="memory state True is not a JSON integer"):
        strategy_from_json(demo.arena, bad)
    bad = dict(good, initial={"per_vertex": {"zz": 0}})
    with pytest.raises(KeyError, match="no vertex named 'zz'"):
        strategy_from_json(demo.arena, bad)
    # Of two faults in one update, the next state is named first.
    bad = dict(good, update=[dict(update, state=-1, next_state=7)])
    with pytest.raises(ValueError, match="memory state 7 out of range"):
        strategy_from_json(demo.arena, bad)


# sha256 of both `solve_fpt` strategy files, Eve's then Adam's, per game.
STRATEGY_FILE_DIGESTS = {
    "fig5": "8252cfc828cd9706e619383272b268c8cf5f356e5d7c65dc468fbe5ff92c2a4a",
    "flower2": "814701ac77ff301289402f73a99fb304ea5211891a9873cba04ff84bd279d0b1",
    # perfbench's CERTIFY_LARGEST
    "random-k8-n500": "bf81685aa59bb03c57dd56d93c95037008cefb7a667ffcda1f18dd1faba83625",
}


@pytest.mark.parametrize("case", sorted(STRATEGY_FILE_DIGESTS))
def test_solve_fpt_strategy_files_are_pinned(request, case):
    if case == "random-k8-n500":
        params = GenParams("random", k=8, n=500, density=4 / 500, color_size=(5, 25), seed=11)
        game = gen_random(params)
    else:
        game = request.getfixturevalue(case)
    assert _strategy_digest(game, solve_fpt(game)) == STRATEGY_FILE_DIGESTS[case]


def _strategy_digest(game, solved) -> str:
    digest = hashlib.sha256()
    for strategy in (solved.eve_strategy, solved.adam_strategy):
        digest.update(dump_strategy(game.arena, strategy).encode())
    return digest.hexdigest()


# The same digests for `_solve_sweep`, whatever route `solve_fpt` takes.
SWEEP_STRATEGY_FILE_DIGESTS = {
    "fold": "9237aaf5d7b557c5791e7d3a8121d1dab16dac74220b7496ddb795a2868f8487",
    # Exactly at the route limit, so `solve_fpt` takes it dense; Eve wins none.
    "random-k18-n16": "ca30c8ddd0461001c113ed7e965d1698eda37310a4966772ab1dc2c70b3eb2f1",
    # Eve wins 48 of the 100 vertices.
    "random-k9-n100": "4309ba91d9cc6b606b3ae314a8ea878e9f27e3c1cec9c38bd9d4a1f36031e571",
    # 79,832 configurations; some non-jump successors carry colours.
    "qbf-14-40": "e6d16bb4f00b831783b6583b72722e2e4067b473f261829be460aabf6d8a363a",
}


def qbf_3cnf(num_vars: int, num_clauses: int) -> QBFFormula:
    """A 3-CNF over distinct variables per clause, signs from
    `random.Random(5)`, under a prefix alternating from exists."""
    rng = random.Random(5)
    clauses = tuple(
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3))
        for _ in range(num_clauses)
    )
    prefix = tuple(("ea"[i % 2], i + 1) for i in range(num_vars))
    return QBFFormula(num_vars, prefix, clauses)


SWEEP_GAMES = {
    "fold": lambda: parse_game(FOLD_TEXT),
    "random-k18-n16": lambda: random_game(3, n=16, k=18, density=0.2, color_size=(1, 3)),
    "random-k9-n100": lambda: random_game(1, n=100, k=9, density=0.04, color_size=(2, 6)),
    "qbf-14-40": lambda: qbf_to_game(qbf_3cnf(14, 40)),
}


@pytest.mark.parametrize("case", sorted(SWEEP_STRATEGY_FILE_DIGESTS))
def test_sweep_strategy_files_are_pinned(case):
    game = SWEEP_GAMES[case]()
    assert _strategy_digest(game, _solve_sweep(game)) == SWEEP_STRATEGY_FILE_DIGESTS[case]


# Eve's targets y then z chain; Adam escapes to t from a.
SINGLETON_CHAIN_TEXT = """\
genreach 1
colors 2
vertex s eve
vertex a adam
vertex y eve 1
vertex z eve 2
vertex t adam
edge s a
edge s y
edge a y
edge a t
edge y z
edge y t
edge z z
edge t t
init s
"""

# Neither of the sinks p and q lies in the other's attractor: Adam wins.
SINGLETON_INCOMPARABLE_TEXT = """\
genreach 1
colors 2
vertex s eve
vertex p adam 1
vertex q adam 2
edge s p
edge s q
edge p p
edge q q
init s
"""

LOOKUP_TEXTS = {
    "fold": FOLD_TEXT,
    "singleton-chain": SINGLETON_CHAIN_TEXT,
    "singleton-incomparable": SINGLETON_INCOMPARABLE_TEXT,
}


def _both_strategies(solver):
    def strategies(game):
        solved = solver(game)
        return solved.eve_strategy, solved.adam_strategy

    return strategies


@pytest.mark.parametrize(
    "strategies, case",
    [
        *(
            pytest.param(_both_strategies(solver), case, id=prefix + case)
            for prefix, solver in (("", solve_fpt), ("sweep-", _solve_sweep))
            for case in ("demo", "fig5", "fold")
        ),
        pytest.param(lambda game: (compress_adam(game),), "fig5", id="compress-adam-fig5"),
        *(
            pytest.param(_both_strategies(solve_singleton), case, id=case)
            for case in ("singleton-chain", "singleton-incomparable")
        ),
        pytest.param(
            lambda game: (min_memory_search(game, E, 3, FULL_CLASS).strategy,),
            "fig42",
            id="min-memory-fig42",
        ),
    ],
)
def test_solve_fpt_moves_answer_every_lookup_alike(request, strategies, case):
    """Every solver's lazy moves answer `get`, `[]`, `in`, iteration and
    `len` alike, and hold nothing off their vertices and states."""
    if case in LOOKUP_TEXTS:
        game = parse_game(LOOKUP_TEXTS[case])
    else:
        game = request.getfixturevalue(case)
    n = game.arena.n
    for strategy in strategies(game):
        if strategy is None:
            continue
        moves, states = strategy.moves, strategy.memory.states
        held = dict(moves)
        assert held and len(moves) == len(held) == len(list(moves))
        for key, w in held.items():
            assert moves[key] == moves.get(key) == moves.get(key, -1) == w
            assert key in moves
        # Out-of-range vertices and states, and pairs not held.
        for v in range(-1, n + 1):
            for s in range(-1, states + 1):
                if (v, s) in held:
                    continue
                assert (v, s) not in moves
                assert moves.get((v, s)) is None and moves.get((v, s), -1) == -1
                with pytest.raises(KeyError):
                    moves[(v, s)]


def test_solve_result_winner(demo):
    solved = solve_fpt(demo)
    assert solved.winner(demo.init) is E
    assert solved.winner(demo.arena.index_of("d")) is A
    assert solved.eve_region | solved.adam_region == frozenset(range(demo.arena.n))
    assert not solved.eve_region & solved.adam_region
