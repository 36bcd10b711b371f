"""Memory structures, finite-memory strategies and their JSON form."""

import pytest

from genreach import (
    FiniteMemoryStrategy,
    MemoryStructure,
    Owner,
    SolveResult,
    StrategyPartialError,
    dump_strategy,
    identity_memory,
    load_strategy,
    solve_fpt,
    strategy_from_json,
    strategy_to_json,
    verify_strategy,
)
from helpers import random_game

E, A = Owner.EVE, Owner.ADAM


def test_memory_structure_initial_forms():
    flat = MemoryStructure(2, 1, lambda s, u, v: s)
    assert flat.initial_state(0) == 1 and flat.initial_state(7) == 1

    per_vertex = MemoryStructure(2, {0: 0, 3: 1}, lambda s, u, v: s)
    assert per_vertex.initial_state(3) == 1
    with pytest.raises(StrategyPartialError, match="start vertex 1"):
        per_vertex.initial_state(1)


def test_memory_from_table_defaults_to_stay():
    mem = MemoryStructure.from_table(3, 0, {(0, 1, 2): 2})
    assert mem.step(0, 1, 2) == 2
    assert mem.step(0, 2, 1) == 0
    assert mem.step(1, 1, 2) == 1


def test_identity_memory():
    mem = identity_memory()
    assert mem.states == 1
    assert mem.initial_state(5) == 0
    assert mem.step(0, 3, 4) == 0


def test_move_fallback(demo):
    arena = demo.arena
    strict = FiniteMemoryStrategy(E, identity_memory(), {})
    with pytest.raises(StrategyPartialError, match="no move for vertex 'c'"):
        strict.move(arena, arena.index_of("c"), 0)
    # Single-successor vertices never need a table entry.
    assert strict.move(arena, arena.index_of("d"), 0) == arena.index_of("d")


def test_json_round_trip(demo):
    solved = solve_fpt(demo)
    doc = strategy_to_json(demo.arena, solved.eve_strategy, start=[demo.init])
    assert doc["player"] == "eve"
    assert {"vertex", "state", "successor"} <= set(doc["moves"][0])

    loaded = strategy_from_json(demo.arena, doc)
    check = verify_strategy(demo, loaded, [demo.init])
    assert check.winning


def test_json_round_trip_text_form(demo):
    solved = solve_fpt(demo)
    text = dump_strategy(demo.arena, solved.eve_strategy, start=[demo.init])
    loaded = load_strategy(demo.arena, text)
    assert verify_strategy(demo, loaded, [demo.init]).winning


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
    mem = MemoryStructure(2, 0, lambda s, u, v: s)
    sigma = FiniteMemoryStrategy(E, mem, {(0, 0): 1, (0, 1): 3})
    doc = strategy_to_json(demo.arena, sigma, start=[demo.init])
    assert doc["moves"] and all(entry["state"] == 0 for entry in doc["moves"])
    assert doc["update"] == []


@pytest.mark.parametrize(
    "fixture", ["demo", "fig5", "flower2"] + [f"random{seed}" for seed in range(24)]
)
def test_solver_strategies_start_on_their_region_and_files_hold_no_guesses(
    request, fixture
):
    if fixture.startswith("random"):
        seed = int(fixture[len("random"):])
        game = random_game(seed, n=6 + seed % 7, k=1 + seed % 4, density=0.35)
    else:
        game = request.getfixturevalue(fixture)
    arena = game.arena
    solved = solve_fpt(game)
    for strategy, region in (
        (solved.eve_strategy, solved.eve_region),
        (solved.adam_strategy, solved.adam_region),
    ):
        doc = strategy_to_json(arena, strategy)
        for row in doc["moves"]:
            v = arena.index_of(row["vertex"])
            w = arena.index_of(row["successor"])
            assert strategy.moves.get((v, row["state"])) == w or arena.succ[v] == (w,)
        loaded = strategy_from_json(arena, doc)
        assert verify_strategy(game, loaded, region).winning
        for v in range(arena.n):
            if v not in region:
                with pytest.raises(StrategyPartialError):
                    strategy.memory.initial_state(v)


def test_from_json_rejects_bad_documents(demo):
    solved = solve_fpt(demo)
    good = strategy_to_json(demo.arena, solved.eve_strategy, start=[demo.init])

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


def test_solve_result_winner(demo):
    solved = solve_fpt(demo)
    assert solved.winner(demo.init) is E
    assert solved.winner(demo.arena.index_of("d")) is A
    assert solved.eve_region | solved.adam_region == frozenset(range(demo.arena.n))
    assert not solved.eve_region & solved.adam_region
