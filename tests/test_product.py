"""Subset memory, the dense and sweep solvers, and the antichain compression."""

import dataclasses
import hashlib
import json
import math
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from genreach import (
    Arena,
    Game,
    GenParams,
    Objective,
    Owner,
    StrategyPartialError,
    UnsupportedInputError,
    compress_adam,
    generate,
    parse_game,
    parse_qdimacs,
    qbf_to_game,
    solve_fpt,
    strategy_to_json,
    verify_strategy,
)
from genreach import product
from genreach.product import (
    _MAX_SLOTS,
    _bits,
    _dense_antichains,
    _discover,
    _solve_dense,
    _solve_sweep,
)
from helpers import (
    FOLD_TEXT,
    antichain_table,
    explicit_product,
    held_moves,
    minimax_region,
    padded_hub,
    random_game,
    random_qdimacs,
)

E, A = Owner.EVE, Owner.ADAM


def _bits_by_scan(x: int) -> list[int]:
    """`_bits` as a scan of every binary digit, the reference."""
    return [i for i, c in enumerate(bin(x)[:1:-1]) if c == "1"]


def test_bits_of_zero_and_single_bits():
    assert _bits(0) == []
    for i in range(1 << 12):
        assert _bits(1 << i) == [i]


@given(
    st.one_of(
        st.sets(st.integers(0, (1 << 12) - 1), max_size=8).map(lambda s: sum(1 << i for i in s)),
        st.integers(0, (1 << (1 << 12)) - 1),
        st.integers(1, 1 << 12).map(lambda b: (1 << b) - 1),
    )
)
def test_bits_matches_the_digit_scan(x):
    assert _bits(x) == _bits_by_scan(x)


def test_subset_memory_folds_colors(demo):
    # Both players number the non-full masks that occur: 0, {1}, {2}.
    result = solve_fpt(demo)
    mem = result.adam_strategy.memory
    assert mem.states == result.eve_strategy.memory.states == result.stats["eve_states"] == 3
    ix = demo.arena.index_of
    # It starts on Adam's region, d, in the state of d's own colors.
    assert mem.initial == {ix("d"): 2}
    assert mem.update(0, ix("c"), ix("a")) == 1
    # A step onto the full mask keeps the last state.
    assert mem.update(1, ix("a"), ix("d")) == 1
    assert mem.update(2, ix("d"), ix("d")) == 2


def test_solve_fpt_on_demo(demo):
    result = solve_fpt(demo)
    ix = demo.arena.index_of
    assert result.method == "fpt"
    assert result.eve_region == frozenset({ix("c"), ix("a"), ix("b")})
    assert result.adam_region == frozenset({ix("d")})
    assert "adam_states" not in result.stats
    assert result.stats["configs"] <= demo.arena.n * 4
    assert verify_strategy(demo, result.eve_strategy, result.eve_region).winning
    assert verify_strategy(demo, result.adam_strategy, result.adam_region).winning


def test_solve_fpt_frozen_flower_stats(flower2):
    result = solve_fpt(flower2)
    names = flower2.arena.names
    assert sorted(names[v] for v in result.eve_region) == ["c1", "c2", "h", "v1", "v2"]
    stats = {key: result.stats[key] for key in ("k", "configs", "product_edges", "ops", "eve_states")}
    assert stats == {
        "k": 2,
        "configs": 17,
        "product_edges": 22,
        "ops": 8,
        "eve_states": 3,
    }
    assert result.adam_strategy.memory.states == 3 and "adam_states" not in result.stats
    assert result.stats["route"] == "dense"


@pytest.mark.parametrize(
    "n, color_size, work",
    [
        (2000, (20, 100), (1_745_891, 7_031_691, 2_063_730, 1_023, 963)),
        (4000, (40, 200), (3_399_771, 13_627_396, 3_887_593, 1_023, 1_900)),
    ],
)
def test_solve_fpt_criterion_10_work_is_pinned(n, color_size, work):
    # Criterion 10's games: a change to the closure or the kernel that
    # alters the work fails here, not only in that test's timing.
    game = random_game(11, n=n, k=10, density=4 / n, color_size=color_size)
    result = solve_fpt(game)
    stats = result.stats
    assert stats["route"] == "dense"
    assert (
        stats["configs"], stats["product_edges"], stats["ops"], stats["eve_states"],
        len(result.eve_region),
    ) == work


def _counting_rows(rows, counts: Counter, key: str) -> tuple:
    """`rows` as tuples that count each loop over them under `key`."""

    class Row(tuple):
        def __iter__(self):
            counts[key] += 1
            return tuple.__iter__(self)

    return tuple(map(Row, rows))


@pytest.mark.parametrize(
    "n, color_size, expansions",
    [(2000, (20, 100), (2_455, 9_934)), (4000, (40, 200), (4_615, 13_865))],
)
def test_dense_route_expands_a_set_once_per_growth(monkeypatch, n, color_size, expansions):
    # Criterion 10's games, whose kernel pops 3,649 and 6,939 times and
    # whose closure pops 29,562 and 36,887 times: a vertex popped with the
    # set it held at its last expansion reads no row.  The kernel reads a
    # predecessor row per expansion; the closure a successor row per
    # expansion, after the kernel's Adam rows and before the stats pass's
    # one read of every row.
    game = random_game(11, n=n, k=10, density=4 / n, color_size=color_size)
    counts: Counter = Counter()
    arena = Arena(game.arena.names, game.arena.owner, _counting_rows(game.arena.succ, counts, "succ"))
    arena.__dict__["_pred"] = _counting_rows(game.arena._pred, counts, "pred")
    game = dataclasses.replace(game, arena=arena)
    after_kernel = []
    dense_win = product._dense_win

    def counted_dense_win(*args):
        out = dense_win(*args)
        after_kernel.append(counts["succ"])
        return out

    monkeypatch.setattr(product, "_dense_win", counted_dense_win)
    counts.clear()
    _solve_dense(game)
    assert (counts["pred"], counts["succ"] - after_kernel[0] - n) == expansions


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
    assert result.adam_strategy.memory.states == result.stats["eve_states"] == 1


def uncapped_game(k: int) -> Game:
    """Eve's a carries the first colors and Adam's b the rest: from a, Eve
    moves to b; from b, Adam escapes to the uncolored sink c."""
    arena = Arena.from_edges(
        ["a", "b", "c"], [E, A, A], [(0, 1), (0, 2), (1, 0), (1, 2), (2, 2)]
    )
    return Game(arena, Objective.from_sets(3, [{0}] * (k // 2) + [{1}] * (k - k // 2)))


@pytest.mark.parametrize("k", [21, 60])
def test_solve_fpt_has_no_color_cap(k):
    # Seven configurations over three non-full masks, whatever k is.
    game = uncapped_game(k)
    result = solve_fpt(game)
    stats = {key: v for key, v in result.stats.items() if key != "seconds"}
    assert stats == {"k": k, "configs": 7, "product_edges": 7, "ops": 0, "eve_states": 3, "route": "sweep"}
    assert result.eve_region == frozenset({0})
    assert result.adam_strategy.memory.states == result.eve_strategy.memory.states == 3
    # Memory states number the masks {}, a's colors and b's colors.
    assert held_moves(result.eve_strategy, 3) == {(0, 1): 1}
    assert held_moves(result.adam_strategy, 3) == {(2, 0): 2, (2, 1): 2, (1, 2): 2, (2, 2): 2}
    assert dict(result.eve_strategy.memory.initial) == {0: 1}
    assert dict(result.adam_strategy.memory.initial) == {1: 2, 2: 0}
    assert verify_strategy(game, result.eve_strategy, result.eve_region).winning
    assert verify_strategy(game, result.adam_strategy, result.adam_region).winning


@pytest.mark.parametrize(
    "hub, slots",
    [
        # n = 2048, k = 14: stops at the 8,189th mask, on its rows.
        ((2048, 14), 16_779_133),
        # n = 18 and 2^20 colors, the spokes' the highest: stops at the
        # 129th mask, on the masks' own bytes, with 2,322 row bytes.
        ((18, 17, 1 << 20), 16_779_367),
    ],
)
def test_solve_fpt_refuses_past_the_sweep_limit(hub, slots):
    # The sweep charges each mask it reaches n plus the mask's bytes and
    # stops before the total passes _MAX_SLOTS, so what it holds stays
    # bounded however wide the masks are.
    game = padded_hub(*hub)
    message = (
        f"level sweep needs {slots} slots (n plus the mask's bytes per mask reached), "
        f"above the limit of {_MAX_SLOTS}"
    )
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedInputError, match=f"^{re.escape(message)}$"):
            solve_fpt(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _MAX_SLOTS == 1 << 24
    assert peak < 24 << 20


def test_discover_reaches_what_a_plain_walk_reaches():
    # Forward discovery alone, against a breadth-first walk over the
    # product from every (v, colors(v)) that does not expand full masks.
    for game in [parse_game(FOLD_TEXT), *small_games()]:
        rows, verts, idx, n_edges = _discover(game)
        succ, full = game.arena.succ, game.objective.full_mask
        seen = {(v, game.colors(v)) for v in range(game.arena.n)}
        queue = list(seen)
        for v, s in queue:
            for w in succ[v] if s != full else ():
                if (w, t := s | game.colors(w)) not in seen:
                    seen.add((w, t))
                    queue.append((w, t))
        assert {(v, s) for s, row in rows.items() for v, r in enumerate(row) if r} == seen
        stats = _solve_sweep(game).stats
        assert sum(map(len, verts.values())) == stats["configs"]
        assert n_edges == stats["product_edges"]
        assert list(idx) == sorted(s for s in rows if s != full)
        assert list(idx.values()) == list(range(len(idx)))
    # It refuses on its own, before any backward work, at the same count.
    message = (
        "level sweep needs 16779133 slots (n plus the mask's bytes per mask reached), "
        f"above the limit of {_MAX_SLOTS}"
    )
    with pytest.raises(UnsupportedInputError, match=f"^{re.escape(message)}$"):
        _discover(padded_hub(2048, 14))


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


def test_compress_adam_on_one_wide_vertex():
    # Adam's self-looping v carries color 1 of k: its 2^k configurations
    # fit up to k=22, and Adam keeps one state per other color, the mask
    # that misses only it.
    arena = Arena(("v",), (A,), ((0,),))
    for k in (21, 22):
        game = Game(arena, Objective.from_sets(1, [{0}] + [set()] * (k - 1)))
        small = compress_adam(game)
        assert small.memory.states == k - 1
        assert verify_strategy(game, small, [0]).winning
    game = Game(arena, Objective.from_sets(1, [{0}] + [set()] * 22))
    with pytest.raises(UnsupportedInputError, match="^full product needs 8388608 configurations"):
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
        assert held_moves(small, arena.n) == expected
        # An update goes to the first maximal mask at w that holds the
        # state's mask and colors(w), and stays where there is none.
        mask = game.objective.mask
        for u in range(arena.n):
            for w in arena.succ[u]:
                for i in range(small.memory.states):
                    t = rows[u][i] | mask[w] if i < len(rows[u]) else None
                    held = [j for j, s in enumerate(rows[w]) if t is not None and t | s == s]
                    assert small.memory.update(i, u, w) == (held[0] if held else i)


def test_compress_adam_outputs_are_pinned(fig5):
    # sha256 over fig5, the largest certify game and the first 100 seeded
    # random games that Adam wins somewhere: per game the strategy file,
    # the state count, and the verdict and states used on Adam's region.
    # Taken while `compress_adam` still filled its update and move tables.
    games = [fig5]
    games.append(generate(GenParams("random", k=8, n=500, density=4 / 500, color_size=(5, 25), seed=11)))
    seed = 0
    while len(games) < 102:
        game = random_game(seed, n=3 + seed % 13, k=1 + seed % 5, density=0.15 + 0.1 * (seed % 4))
        seed += 1
        if solve_fpt(game).adam_region:
            games.append(game)
    digest = hashlib.sha256()
    for game in games:
        small = compress_adam(game)
        verdict = verify_strategy(game, small, solve_fpt(game).adam_region)
        document = json.dumps(strategy_to_json(game.arena, small), sort_keys=True)
        record = (document, small.memory.states, verdict.winning, sorted(verdict.states_used))
        digest.update(repr(record).encode())
    assert digest.hexdigest() == "2a884213a447d302b8aeff011815db4c9ed7ec3e2acffa01fa2002a28a96af24"


def test_solve_fpt_allocates_only_reached_levels():
    # 20 colors, of which a carries the first 10 and b the other 10; the
    # uncolored self-loops d and e make n * 2^20 exceed MAX_CONFIGS.
    arena = Arena.from_edges(
        ["a", "b", "c", "d", "e"],
        [E, A, A, A, A],
        [(0, 1), (0, 2), (1, 0), (1, 2), (2, 2), (3, 3), (4, 4)],
    )
    objective = Objective.from_sets(5, [{0}] * 10 + [{1}] * 10)
    game = Game(arena, objective)
    tracemalloc.start()
    try:
        result = solve_fpt(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.stats["configs"] == 9
    assert result.stats["route"] == "sweep"
    assert result.eve_region == frozenset({0})
    assert peak < 1 << 20


def test_sweep_holds_no_move_per_configuration():
    # 40,582 configurations over 511 masks of 100 vertices: the rows and
    # the level lists, not a move per configuration.
    game = random_game(1, n=100, k=9, density=0.04, color_size=(2, 6))
    tracemalloc.start()
    try:
        result = _solve_sweep(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.stats["configs"] == 40_582
    assert len(result.eve_region) == 48
    assert peak < 1.5 * (1 << 20)


def small_games() -> list[Game]:
    """The 100 small random games both routes are checked on."""
    games = [random_game(seed, n=6 + seed % 5, k=1 + seed % 3, density=0.3) for seed in range(60)]
    return games + [random_game(seed, n=7, k=3, density=0.35) for seed in range(40)]


def mid_size_games() -> list[Game]:
    """Large enough for the closure's LIFO order and multi-color step lists
    to matter: n = 60..225, k = 5..8, up to 22 vertices per color."""
    games = []
    for seed in range(12):
        n = 60 + 15 * seed
        games.append(
            random_game(seed, n=n, k=5 + seed % 4, density=4 / n, color_size=(2, max(2, n // 10)))
        )
    return games


def routes_agree(game: Game):
    """Both routes on `game`, after checking that they agree."""
    dense, sweep = _solve_dense(game), _solve_sweep(game)
    assert (dense.stats["route"], sweep.stats["route"]) == ("dense", "sweep")
    assert dense.eve_region == sweep.eve_region
    rest = [
        {key: v for key, v in r.stats.items() if key not in ("route", "seconds")}
        for r in (dense, sweep)
    ]
    assert rest[0] == rest[1]
    for r in (dense, sweep):
        assert r.adam_strategy.memory.states == r.eve_strategy.memory.states == r.stats["eve_states"]
    n = game.arena.n
    assert held_moves(dense.adam_strategy, n) == held_moves(sweep.adam_strategy, n)
    for player in ("eve_strategy", "adam_strategy"):
        initial = [dict(getattr(r, player).memory.initial) for r in (dense, sweep)]
        assert initial[0] == initial[1]
    # Eve may move elsewhere, but on the same (vertex, state) pairs.
    eve_moves = [held_moves(r.eve_strategy, n) for r in (dense, sweep)]
    assert set(eve_moves[0]) == set(eve_moves[1])
    assert len(eve_moves[0]) == len(eve_moves[1])
    return dense, sweep


def test_dense_route_matches_sweep(demo, flower2, flower3, picker3, fig42, fig44, fig5):
    fold = parse_game(FOLD_TEXT)
    sweep = _solve_sweep(fold)
    assert sweep.eve_region == frozenset({0, 2, 3, 4})
    assert held_moves(sweep.eve_strategy, fold.arena.n) == {(0, 0): 4, (3, 0): 2}
    assert held_moves(sweep.adam_strategy, fold.arena.n) == {(1, 0): 5, (5, 1): 5}
    # One relaxation each: a from e (never won), c from b.
    assert sweep.stats["ops"] == 2
    games = [fold, demo, flower2, flower3, picker3, fig42, fig44, fig5, *small_games()]
    # The reduction games of criterion 03's random formulas.
    games += [
        qbf_to_game(parse_qdimacs(random_qdimacs(random.Random(23_000 + seed))))
        for seed in range(300)
    ]
    for game in games:
        dense, sweep = routes_agree(game)
        # State -1 must not wrap to the last mask.
        for strategy in (dense.eve_strategy, dense.adam_strategy):
            with pytest.raises(StrategyPartialError, match="out of range"):
                strategy.move(game.arena, 0, -1)
        for result in (dense, sweep):
            assert verify_strategy(game, result.eve_strategy, result.eve_region).winning


def test_dense_route_matches_sweep_on_mid_size_games():
    for game in mid_size_games():
        routes_agree(game)


def test_dense_route_outputs_are_pinned():
    # sha256 over `small_games()` and `mid_size_games()`: per game the
    # dense route's regions, its stats but `seconds`, and both strategy
    # files.  Eve's moves come from the order `_dense_win` wins her
    # configurations in, so a change to that order fails here.
    digest = hashlib.sha256()
    for game in small_games() + mid_size_games():
        result = _solve_dense(game)
        stats = {key: v for key, v in result.stats.items() if key != "seconds"}
        files = [
            json.dumps(strategy_to_json(game.arena, s), sort_keys=True)
            for s in (result.eve_strategy, result.adam_strategy)
        ]
        record = (sorted(result.eve_region), sorted(result.adam_region), sorted(stats.items()), files)
        digest.update(repr(record).encode())
    assert digest.hexdigest() == "b51dba47bc7fedacf6cefe49611c8884f186f3a5eb05ce4446f121466cd7908d"


@pytest.mark.parametrize(
    "solve, route, phases",
    [
        (_solve_dense, "dense", ["kernel", "reach", "stats"]),
        (_solve_sweep, "sweep", ["discovery", "sweep"]),
    ],
)
def test_solve_fpt_phases_add_up_to_at_most_its_seconds(solve, route, phases):
    game = mid_size_games()[-1]
    result = solve(game)
    assert result.stats["route"] == route
    assert list(result.phases) == phases
    assert all(t >= 0 for t in result.phases.values())
    assert sum(result.phases.values()) <= result.stats["seconds"]
    # Phase times are not part of the result's value.
    assert result == dataclasses.replace(result, phases={})
