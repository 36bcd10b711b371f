"""Arena, objective and play bookkeeping."""

import pytest
from hypothesis import given, strategies as st

from genreach import (
    Arena,
    DEFAULT_COLOR_CAP,
    Game,
    Objective,
    Owner,
    trace_play,
    validate_arena,
)
from helpers import InvalidPlay, check_play, random_game

E, A = Owner.EVE, Owner.ADAM


def test_arena_from_edges_sorts_successors():
    arena = Arena.from_edges(["a", "b", "c"], [E, A, E], [(0, 2), (0, 1), (1, 1), (2, 0)])
    assert arena.n == 3
    assert arena.m == 4
    assert arena.succ == ((1, 2), (1,), (0,))
    assert arena.edges == ((0, 1), (0, 2), (1, 1), (2, 0))
    assert arena.index_of("b") == 1
    assert arena.is_eve(0) and not arena.is_eve(1)


def test_arena_rejects_out_of_range_edges():
    with pytest.raises(ValueError):
        Arena.from_edges(["a"], [E], [(0, 1)])
    with pytest.raises(ValueError):
        Arena(("a",), (E,), ((3,),))


def test_arena_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        Arena(("a", "b"), (E,), ((0,), (1,)))


def test_index_of_unknown_name():
    arena = Arena.from_edges(["a"], [E], [(0, 0)])
    with pytest.raises(KeyError):
        arena.index_of("z")


def test_objective_masks():
    obj = Objective.from_sets(4, [{1, 2}, {3}])
    assert obj.k == 2
    assert obj.mask == (0, 1, 1, 2)
    assert obj.full_mask == 3
    assert obj.color_sets == (frozenset({1, 2}), frozenset({3}))


def test_objective_empty_color_set_is_allowed():
    obj = Objective.from_sets(2, [set()])
    assert obj.mask == (0, 0)
    assert obj.full_mask == 1


def test_objective_rejects_inconsistent_mask():
    with pytest.raises(ValueError, match="mask disagrees"):
        Objective(k=1, color_sets=(frozenset({0}),), mask=(0, 1))


def test_objective_rejects_out_of_range_member():
    with pytest.raises(ValueError, match="color 2"):
        Objective.from_sets(2, [{0}, {5}])


def test_game_checks_sizes(demo):
    small = Objective.from_sets(2, [{0}, {1}])
    with pytest.raises(ValueError):
        Game(demo.arena, small)
    with pytest.raises(ValueError):
        Game(demo.arena, demo.objective, init=99)
    assert demo.k == 2
    assert demo.colors(demo.arena.index_of("d")) == 2


def test_trace_play_accumulates_colors(demo):
    ix = demo.arena.index_of
    play = trace_play(demo, [ix("c"), ix("a"), ix("d"), ix("d")])
    assert play.masks == (0, 1, 3, 3)
    check_play(demo, play)


def test_check_play_rejects_non_edges_and_bad_masks(demo):
    ix = demo.arena.index_of
    from genreach import Play

    with pytest.raises(InvalidPlay, match="not an edge"):
        check_play(demo, trace_play(demo, [ix("d"), ix("a")]))
    with pytest.raises(InvalidPlay, match="accumulate"):
        check_play(demo, Play((ix("c"), ix("a")), (0, 0)))
    with pytest.raises(InvalidPlay, match="initial mask"):
        check_play(demo, Play((ix("a"),), (0,)))
    with pytest.raises(ValueError):
        Play((), ())


def test_validate_arena_reports_violations():
    assert validate_arena(Arena((), (), ())) == ["arena has no vertices"]
    dead = Arena(("a", "b"), (E, A), ((1,), ()))
    assert validate_arena(dead) == ["dead end at vertex 'b'"]
    dup = Arena.from_edges(["a", "b"], [E, A], [(0, 1), (0, 1), (1, 0)])
    assert validate_arena(dup) == ["duplicate edge 'a' -> 'b'"]


def test_default_cap_value():
    assert DEFAULT_COLOR_CAP == 20


@given(st.integers(0, 10_000))
def test_generated_games_are_well_formed(seed):
    game = random_game(seed, n=1 + seed % 12, k=seed % 4)
    assert validate_arena(game.arena) == []
    assert game.init is not None and 0 <= game.init < game.arena.n
