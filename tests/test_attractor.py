"""Eve's attractor and the opponent-only solver built on it."""

import pytest
from hypothesis import given, strategies as st

from genreach import (
    Owner,
    UnsupportedInputError,
    attractor,
    avoid_moves,
    parse_game,
    solve_fpt,
    solve_opponent_player,
    verify_strategy,
)
from helpers import random_game

E = Owner.EVE


def test_attractor_ranks_on_demo(demo):
    arena = demo.arena
    ix = arena.index_of
    attr = attractor(arena, [ix("d")])
    assert attr.attractor == frozenset(range(4))
    # Index order is c, a, b, d.
    assert attr.rank == (1, 2, 1, 0)
    # Rank-decreasing moves pick the lowest-index successor that descends.
    assert attr.moves == {ix("c"): ix("d"), ix("b"): ix("d")}
    assert 0 < attr.ops <= arena.m


# Index order e, x, y, a, t1, t2, z, o.  Eve's e has two rank-1
# successors, x and y; Adam's a needs both of them won; z and o stay out.
# `{0}` is the owner of e, x, y and o.
MIXED_TEXT = """\
genreach 1
colors 2
vertex e {0}
vertex x {0} 2
vertex y {0}
vertex a adam
vertex t1 adam 1
vertex t2 adam 1
vertex z adam
vertex o {0}
edge e x
edge e y
edge x t2
edge y t1
edge a x
edge a y
edge t1 t1
edge t2 t2
edge z z
edge z e
edge o z
edge o o
init e
"""


def test_attractor_exact_counts():
    arena = parse_game(MIXED_TEXT.format("eve")).arena
    attr = attractor(arena, [4, 5])
    assert attr.attractor == frozenset(range(6))
    # FIFO: t1 wins y, t2 wins x, y wins e and half of a, x the other
    # half; z is relaxed once from e and never won.
    assert attr.rank == (2, 1, 1, 2, 0, 0, None, None)
    assert attr.ops == 6
    # y completed e, but the move is the lowest-index descending one, x.
    assert attr.moves == {0: 1, 1: 5, 2: 4}

    result = solve_opponent_player(parse_game(MIXED_TEXT.format("adam")))
    # All Adam: color 1 = {t1, t2} attracts all but z and o in 7
    # relaxations (e and a twice each, z once); color 2 = {x} relaxes e
    # and a once each.
    assert result.stats == {"ops": 9, "attractor_sizes": [6, 1]}
    assert result.eve_region == frozenset({1})


def test_attractor_empty_targets(demo):
    attr = attractor(demo.arena, [])
    assert attr.attractor == frozenset()
    assert attr.rank == (None, None, None, None)
    assert attr.moves == {}


def test_attractor_proper_subset(demo):
    arena = demo.arena
    ix = arena.index_of
    attr = attractor(arena, [ix("a")])
    assert attr.attractor == frozenset({ix("c"), ix("a"), ix("b")})
    assert attr.rank[ix("d")] is None


def test_avoid_moves_on_closed_complement(demo):
    arena = demo.arena
    ix = arena.index_of
    attr = attractor(arena, [ix("a")])
    # The complement is the sink d, owned by Adam, which loops in place.
    assert avoid_moves(arena, attr) == {ix("d"): ix("d")}


def test_avoid_moves_rejects_open_complement(demo):
    arena = demo.arena
    ix = arena.index_of
    attr = attractor(arena, [ix("d")])
    # Eve's attractor here is everything; fake a result that pretends
    # Adam's a stayed outside even though all of a's successors lead in.
    assert attr.attractor == frozenset(range(4))
    fake = attr.__class__(frozenset({ix("d"), ix("b"), ix("c")}), attr.rank, {}, 0)
    with pytest.raises(AssertionError, match="must be closed"):
        avoid_moves(arena, fake)


def test_solve_opponent_player_rejects_eve_vertices(demo):
    with pytest.raises(UnsupportedInputError, match="vertex 'c' belongs to eve"):
        solve_opponent_player(demo)


def test_solve_opponent_player_agrees_with_general_solver():
    for seed in range(40):
        game = random_game(seed, n=7, k=2, density=0.35, eve_ratio=0.0)
        special = solve_opponent_player(game)
        general = solve_fpt(game)
        assert special.eve_region == general.eve_region
        assert special.method == "opponent"
        assert len(special.stats["attractor_sizes"]) == game.k
        if special.eve_region:
            check = verify_strategy(game, special.eve_strategy, special.eve_region)
            assert check.winning


@given(st.integers(0, 5_000), st.integers(0, 30))
def test_attractor_monotone_in_targets(seed, extra):
    """Adding target vertices never shrinks the attractor."""
    game = random_game(seed, n=9, k=1, density=0.3)
    arena = game.arena
    base = sorted(game.objective.color_sets[0]) if game.k else []
    small = attractor(arena, base).attractor
    large = attractor(arena, base + [extra % arena.n]).attractor
    assert small <= large


@given(st.integers(0, 5_000))
def test_attractor_is_a_fixpoint(seed):
    """Inside, the owner can descend; outside, the opponent can stay out."""
    game = random_game(seed, n=8, k=1, density=0.4)
    arena = game.arena
    targets = set(game.objective.color_sets[0])
    attr = attractor(arena, targets)
    for v in range(arena.n):
        inside = v in attr.attractor
        succ_in = [w in attr.attractor for w in arena.succ[v]]
        if v in targets:
            assert inside
        elif arena.owner[v] is E:
            assert inside == any(succ_in)
        else:
            assert inside == all(succ_in)
