"""Game text parsing, serialization and Graphviz export."""

import pytest
from hypothesis import given, strategies as st

from genreach import (
    Arena,
    Game,
    GameParseError,
    Objective,
    Owner,
    UnsupportedInputError,
    export_dot,
    parse_game,
    serialize_game,
    solve_fpt,
)
from conftest import DEMO_TEXT
from helpers import random_game


def test_parse_demo(demo):
    arena = demo.arena
    assert arena.names == ("c", "a", "b", "d")
    assert [o.value for o in arena.owner] == ["eve", "adam", "eve", "adam"]
    assert demo.objective.color_sets == (frozenset({1, 2}), frozenset({3}))
    assert demo.init == 0
    assert arena.succ[arena.index_of("d")] == (arena.index_of("d"),)


def test_parse_ignores_comments_and_blank_lines():
    text = DEMO_TEXT.replace("init c", "# trailing comment\n\ninit c  # start here")
    assert parse_game(text).init == 0


def test_serialize_round_trip(demo):
    assert serialize_game(demo) == DEMO_TEXT
    assert parse_game(serialize_game(demo)) == demo


@given(st.integers(0, 10_000))
def test_serialize_round_trip_random(seed):
    game = random_game(seed, n=1 + seed % 15, k=seed % 5)
    assert parse_game(serialize_game(game)) == game


@pytest.mark.parametrize(
    "mutation, message",
    [
        (("genreach 1", "genreach 2"), "expected header 'genreach 1'"),
        (("colors 2", "colors two"), "line 2:"),
        (("colors 2", "colors -1"), "must be non-negative"),
        (("vertex c eve", "vertex c eve 9"), "color 9 out of range 1..2"),
        (("vertex a adam 1", "vertex c adam 1"), "duplicate vertex 'c'"),
        (("vertex b eve 1", "vertex b queen 1"), "owner must be 'eve' or 'adam'"),
        (("edge c a", "edge c z"), "unknown vertex name 'z'"),
        (("edge c b", "edge c a"), "duplicate edge 'c' -> 'a'"),
        (("init c", "init zz"), "unknown vertex name 'zz'"),
        (("init c", "init c\ninit a"), "duplicate init"),
        (("edge d d", "edge d d\nnoise 1 2"), "unknown directive 'noise'"),
        (("colors 2", "colors 2\ncolors 2"), "line 3: duplicate colors declaration"),
        (("edge c a", "colors 2\nedge c a"), "line 7: duplicate colors declaration"),
        (("vertex b eve 1", "vertex b eve 1 1"), "line 5: repeated color 1"),
        (("colors 2", "colors 2 3"), "line 2: colors takes exactly one count"),
        (("vertex d adam 2", "vertex d"), "line 6: vertex needs a name and an owner"),
        (("edge c a", "edge c a b"), "line 7: edge takes exactly two vertex names"),
        (("init c", "init c a"), "line 15: init takes exactly one vertex name"),
    ],
)
def test_parse_errors(mutation, message):
    old, new = mutation
    with pytest.raises(GameParseError, match=message):
        parse_game(DEMO_TEXT.replace(old, new, 1))


def test_parse_error_carries_line_number():
    with pytest.raises(GameParseError) as err:
        parse_game(DEMO_TEXT.replace("edge c a", "edge c zz", 1))
    assert str(err.value).startswith("line 7:")


def test_colors_must_come_first():
    text = "genreach 1\nvertex a eve\ncolors 1\nedge a a\n"
    with pytest.raises(GameParseError, match="colors must be declared before"):
        parse_game(text)


def test_dead_end_blamed_on_its_vertex():
    text = "genreach 1\ncolors 1\nvertex a eve 1\nvertex b adam\nedge b a\n"
    with pytest.raises(GameParseError, match="line 3: dead end at vertex 'a'"):
        parse_game(text)


def test_dead_end_line_when_one_name_prefixes_another():
    # x's name, quoted, is not inside the message about x', so the line
    # must come from x''s own declaration.
    text = "genreach 1\ncolors 0\nvertex x eve\nvertex x' eve\nedge x x\n"
    with pytest.raises(GameParseError) as err:
        parse_game(text)
    assert str(err.value) == "line 4: dead end at vertex 'x''"


def test_missing_pieces():
    with pytest.raises(GameParseError, match="missing 'genreach 1' header"):
        parse_game("")
    with pytest.raises(GameParseError, match="missing colors"):
        parse_game("genreach 1\n")
    with pytest.raises(GameParseError, match="declares no vertices"):
        parse_game("genreach 1\ncolors 0\n")


def test_zero_colors_is_a_valid_game():
    game = parse_game("genreach 1\ncolors 0\nvertex a eve\nedge a a\n")
    assert game.k == 0 and game.init is None


def test_serialize_rejects_unprintable_names():
    broken = Arena(("a b",), (Owner.EVE,), ((0,),))
    game = Game(broken, Objective.from_sets(1, []))
    with pytest.raises(UnsupportedInputError, match="not serializable"):
        serialize_game(game)


def test_export_dot_shapes_and_marks(demo):
    dot = export_dot(demo)
    assert "shape=circle" in dot and "shape=box" in dot
    assert "peripheries=2" in dot
    assert '"c" -> "a"' in dot

    solved = solve_fpt(demo)
    decorated = export_dot(demo, solved)
    assert "penwidth=2" in decorated
