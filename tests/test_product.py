"""Subset memory, the dense and sweep solvers, and the antichain compression."""

import math
import tracemalloc

import pytest

from genreach import (
    Arena,
    Game,
    Objective,
    Owner,
    UnsupportedInputError,
    compress_adam,
    parse_game,
    solve_fpt,
    subset_memory,
    verify_strategy,
)
from genreach.product import _dense_antichains, _solve_dense, _solve_sweep
from helpers import antichain_table, explicit_product, minimax_region, random_game

E, A = Owner.EVE, Owner.ADAM


def test_subset_memory_folds_colors(demo):
    mem = subset_memory(demo.objective)
    assert mem.states == 4
    # Starting anywhere, the initial state is that vertex's own colors.
    assert mem.initial_state(demo.arena.index_of("a")) == 1
    assert mem.initial_state(demo.arena.index_of("c")) == 0
    assert mem.step(1, 0, demo.arena.index_of("d")) == 3
    assert mem.step(3, 3, 3) == 3


def test_solve_fpt_on_demo(demo):
    result = solve_fpt(demo)
    ix = demo.arena.index_of
    assert result.method == "fpt"
    assert result.eve_region == frozenset({ix("c"), ix("a"), ix("b")})
    assert result.adam_region == frozenset({ix("d")})
    assert result.stats["adam_states"] == 4
    assert result.stats["configs"] <= demo.arena.n * 4
    assert verify_strategy(demo, result.eve_strategy, result.eve_region).winning
    assert verify_strategy(demo, result.adam_strategy, result.adam_region).winning


def test_solve_fpt_frozen_flower_stats(flower2):
    result = solve_fpt(flower2)
    names = flower2.arena.names
    assert sorted(names[v] for v in result.eve_region) == ["c1", "c2", "h", "v1", "v2"]
    stats = {key: result.stats[key] for key in ("k", "configs", "product_edges", "ops", "eve_states", "adam_states")}
    assert stats == {
        "k": 2,
        "configs": 17,
        "product_edges": 22,
        "ops": 8,
        "eve_states": 3,
        "adam_states": 4,
    }
    assert result.stats["route"] == "dense"


def test_solve_fpt_fixture_regions(picker3, fig44, fig5):
    assert solve_fpt(picker3).eve_region == frozenset()
    assert solve_fpt(fig5).eve_region == frozenset()
    names = fig44.arena.names
    won = sorted(names[v] for v in solve_fpt(fig44).eve_region)
    assert won == ["a1", "a2", "a3", "a4", "h", "p1", "p2"]


def test_solve_fpt_zero_colors(demo):
    import dataclasses

    empty = dataclasses.replace(
        demo, objective=Objective.from_sets(demo.arena.n, [])
    )
    result = solve_fpt(empty)
    assert result.eve_region == frozenset(range(demo.arena.n))
    assert result.stats["adam_states"] == 1


def test_solve_fpt_cap(demo):
    with pytest.raises(UnsupportedInputError, match="exceed the bitmask cap"):
        solve_fpt(demo, cap=1)


def test_solve_fpt_agrees_with_explicit_product():
    for seed in range(60):
        game = random_game(seed, n=6 + seed % 5, k=1 + seed % 3, density=0.3)
        direct = solve_fpt(game)
        rank, _ = explicit_product(game)
        region = frozenset(
            v for v in range(game.arena.n) if rank[(v, game.colors(v))] >= 0
        )
        assert direct.eve_region == region, f"seed {seed}"
        if seed % 10 == 0:
            assert direct.eve_region == minimax_region(game), f"seed {seed}"
        if seed % 7 == 0:
            assert verify_strategy(game, direct.eve_strategy, direct.eve_region).winning
            assert verify_strategy(game, direct.adam_strategy, direct.adam_region).winning


def test_antichain_table_maximal_masks():
    region = [(0, 0b00), (0, 0b01), (0, 0b10), (1, 0b00)]
    rows = antichain_table(region, n=3)
    assert rows == [(0b01, 0b10), (0b00,), ()]
    assert max(map(len, rows)) == 2 <= math.comb(2, 1)


def test_antichain_table_rejects_non_closed_region():
    with pytest.raises(UnsupportedInputError, match="mask 0b1"):
        antichain_table([(0, 0b11), (0, 0b01)], n=1)


def test_compress_adam_on_small_antichain(fig5):
    small = compress_adam(fig5)
    bound = math.comb(4, 2)
    assert small.memory.states == 4 <= bound
    region = solve_fpt(fig5).adam_region
    assert region == frozenset(range(fig5.arena.n))
    assert verify_strategy(fig5, small, region).winning


def test_compress_adam_config_limit():
    # 5 * 2^20 configurations exceed the 2^22 limit; the refusal comes
    # before any of them is allocated.
    n, k = 5, 20
    arena = Arena.from_edges(
        [f"v{i}" for i in range(n)], [A] * n, [(i, (i + 1) % n) for i in range(n)]
    )
    game = Game(arena, Objective.from_sets(n, [{c % n} for c in range(k)]))
    with pytest.raises(UnsupportedInputError, match="above the limit of 4194304"):
        compress_adam(game)


def test_compress_adam_color_cap():
    # 21 colors on one self-looping vertex: refused on k alone.
    arena = Arena(("v",), (A,), ((0,),))
    game = Game(arena, Objective.from_sets(1, [{0}] * 21))
    with pytest.raises(
        UnsupportedInputError, match="^21 color sets exceed the bitmask cap of 20$"
    ):
        compress_adam(game)


def test_compress_adam_random_games_stay_within_bound():
    for seed in range(40):
        game = random_game(seed, n=7, k=3, density=0.35)
        result = solve_fpt(game)
        if not result.adam_region:
            continue
        small = compress_adam(game)
        assert small.memory.states <= math.comb(3, 1)
        assert verify_strategy(game, small, result.adam_region).winning


def test_compress_adam_matches_explicit_product(fig5):
    games = [fig5]
    games += [random_game(seed, n=7, k=3, density=0.35) for seed in range(40)]
    for game in games:
        arena = game.arena
        rank, escape = explicit_product(game)
        rows = antichain_table((c for c, r in rank.items() if r == -1), arena.n)
        assert _dense_antichains(game)[0] == rows
        small = compress_adam(game)
        assert small.memory.states == max(1, *map(len, rows))
        expected = {
            (u, i): escape[(u, s)]
            for u in range(arena.n)
            if arena.owner[u] is A
            for i, s in enumerate(rows[u])
        }
        assert dict(small.moves) == expected


def test_solve_fpt_allocates_only_reached_levels():
    # 22 colors, of which a carries the first 11 and b the other 11.
    arena = Arena.from_edges(
        ["a", "b", "c"], [E, A, A], [(0, 1), (0, 2), (1, 0), (1, 2), (2, 2)]
    )
    objective = Objective.from_sets(3, [{0}] * 11 + [{1}] * 11)
    game = Game(arena, objective)
    tracemalloc.start()
    try:
        result = solve_fpt(game, cap=22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.stats["configs"] == 7
    assert result.stats["route"] == "sweep"
    assert result.eve_region == frozenset({0})
    assert peak < 1 << 20


# Every vertex of mask 0 meets the sweep's jump fold: (e, 0) wins only by
# its jump to g, (a, 0) has a losing jump to h, every move of (b, 0) jumps
# to a win, and (c, 0) wins in-level through b.
FOLD_TEXT = """\
genreach 1
colors 2
vertex e eve
vertex a adam
vertex b adam
vertex c eve
vertex g adam 1 2
vertex h adam 1
edge e e
edge e g
edge a e
edge a h
edge b g
edge c a
edge c b
edge g g
edge h h
init e
"""


def test_dense_route_matches_sweep(demo, flower2, flower3, picker3, fig42, fig44, fig5):
    fold = parse_game(FOLD_TEXT)
    sweep = _solve_sweep(fold)
    assert sweep.eve_region == frozenset({0, 2, 3, 4})
    assert dict(sweep.eve_strategy.moves) == {(0, 0): 4, (3, 0): 2}
    assert dict(sweep.adam_strategy.moves) == {(1, 0): 5, (5, 1): 5}
    # One relaxation each: a from e (never won), c from b.
    assert sweep.stats["ops"] == 2
    games = [fold, demo, flower2, flower3, picker3, fig42, fig44, fig5]
    games += [random_game(seed, n=6 + seed % 5, k=1 + seed % 3, density=0.3) for seed in range(60)]
    games += [random_game(seed, n=7, k=3, density=0.35) for seed in range(40)]
    for game in games:
        dense, sweep = _solve_dense(game), _solve_sweep(game)
        assert (dense.stats["route"], sweep.stats["route"]) == ("dense", "sweep")
        assert dense.eve_region == sweep.eve_region
        rest = [
            {key: v for key, v in r.stats.items() if key not in ("route", "seconds")}
            for r in (dense, sweep)
        ]
        assert rest[0] == rest[1]
        assert dict(dense.adam_strategy.moves) == dict(sweep.adam_strategy.moves)
        # Eve may move elsewhere, but on the same (vertex, state) pairs.
        assert set(dense.eve_strategy.moves) == set(sweep.eve_strategy.moves)
        assert len(dense.eve_strategy.moves) == len(sweep.eve_strategy.moves)
        assert (0, -1) not in dense.eve_strategy.moves and (0, -1) not in dense.adam_strategy.moves
        for result in (dense, sweep):
            assert verify_strategy(game, result.eve_strategy, result.eve_region).winning
