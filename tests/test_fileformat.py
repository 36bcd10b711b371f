"""Game text parsing, serialization and Graphviz export."""

import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

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
    strategy_to_json,
)
from genreach.fileformat import MAX_COLORS
from conftest import DEMO_TEXT
from helpers import diagonal_colors_text, mutated, random_game


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
        (("colors 2", f"colors {MAX_COLORS + 1}"), f"line 2: color count {MAX_COLORS + 1} exceeds"),
        (("colors 2", "colors 1000000000000"), "line 2: color count 1000000000000 exceeds"),
        # More digits than int() converts.
        (("colors 2", "colors " + "9" * 5000), "line 2: integer of 5000 digits is too long"),
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
    with pytest.raises(GameParseError) as err:
        parse_game("genreach 1\ncolors 0\n")
    assert str(err.value) == "arena has no vertices"
    # With no vertices, an edge names an unknown vertex, and that comes first.
    with pytest.raises(GameParseError, match="line 3: unknown vertex name 'a'"):
        parse_game("genreach 1\ncolors 0\nedge a a\n")


def test_zero_colors_is_a_valid_game():
    game = parse_game("genreach 1\ncolors 0\nvertex a eve\nedge a a\n")
    assert game.k == 0 and game.init is None


def test_declared_colors_cost_nothing_until_carried():
    tracemalloc.start()
    try:
        game = parse_game("genreach 1\ncolors 200000\nvertex a eve 7\nedge a a\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert game.k == 200000
    assert game.objective.color_sets[6] == {0}
    assert game.objective.mask == (1 << 6,)
    assert peak < 8 << 20


def test_color_masks_under_the_limit_parse():
    # 2^15 vertices, vertex i carrying color i + 1: 2^29 mask bits in all.
    game = parse_game(diagonal_colors_text(1 << 15))
    assert game.objective.mask[-1] == 1 << ((1 << 15) - 1)


def test_refused_color_masks_parse_in_bounded_memory():
    # The 2^16 diagonal file passes the mask limit, so `Objective` refuses
    # it once parsed.  Parsing keeps one list per carried color and frees
    # each as its frozenset is made: a set per color peaked at 69 MiB.
    text = diagonal_colors_text(1 << 16)
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedInputError, match="color masks of 2147516416 bits"):
            parse_game(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 << 20


def test_color_count_at_the_limit():
    text = f"genreach 1\ncolors {MAX_COLORS}\nvertex a eve {MAX_COLORS}\nedge a a\n"
    game = parse_game(text)
    assert game.k == MAX_COLORS == 1 << 20
    assert game.colors(0) == 1 << (MAX_COLORS - 1)
    assert serialize_game(game) == text


def test_serialize_refuses_more_colors_than_the_format_takes():
    arena = Arena(("a",), (Owner.EVE,), ((0,),))
    game = Game(arena, Objective(1, (frozenset(),) * (MAX_COLORS + 1)))
    with pytest.raises(UnsupportedInputError, match=f"exceed the format's limit {MAX_COLORS}"):
        serialize_game(game)


# Files with several faults.  Faults on a line of their own come first, in
# file order; then an edge to an unknown vertex; then a repeated edge, at
# its first repeat in the file; then a dead end, at its vertex's
# declaration; then an unknown init vertex.
TWO_LOOPS = "genreach 1\ncolors 0\nvertex a eve\nvertex b eve\nedge b b\nedge a a\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            DEMO_TEXT.replace("edge c a", "edge c zz") + "noise\n",
            "line 16: unknown directive 'noise'",
        ),
        (
            DEMO_TEXT.replace("edge c b", "edge c a").replace("edge b d", "edge b zz"),
            "line 13: unknown vertex name 'zz'",
        ),
        (TWO_LOOPS + "edge b b\nedge a a\n", "line 7: duplicate edge 'b' -> 'b'"),
        (
            DEMO_TEXT.replace("edge d d", "edge d d\nedge c a\nedge c a"),
            "line 15: duplicate edge 'c' -> 'a'",
        ),
        (
            TWO_LOOPS.replace("edge a a", "edge b a") + "edge b a\n",
            "line 7: duplicate edge 'b' -> 'a'",
        ),
        (
            TWO_LOOPS.replace("edge a a", "init zz"),
            "line 3: dead end at vertex 'a'",
        ),
    ],
    ids=[
        "line-fault-before-unknown-name",
        "unknown-name-before-earlier-duplicate",
        "first-repeat-in-file-order",
        "third-copy-blamed-on-second",
        "duplicate-before-earlier-dead-end",
        "dead-end-before-unknown-init",
    ],
)
def test_fault_order(text, message):
    with pytest.raises(GameParseError) as err:
        parse_game(text)
    assert str(err.value) == message


_INTEGERS = st.one_of(
    st.integers(-2, 5), st.sampled_from([MAX_COLORS, MAX_COLORS + 1]), st.integers()
)


@settings(deadline=None)
@given(mutated(DEMO_TEXT, _INTEGERS))
def test_parse_gives_a_game_or_a_parse_error(text):
    try:
        game = parse_game(text)
    except GameParseError:
        return
    assert parse_game(serialize_game(game)) == game


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


def test_export_dot_draws_the_moves_strategy_files_hold(demo, flower2):
    # A file writes the forced move of a one-successor vertex too, and leaves
    # out a held move at a state no play from the start map reaches, as
    # solve_fpt's Eve strategy holds on random_game(0, n=8, k=3).
    for game in (demo, flower2, *(random_game(seed, n=8, k=3) for seed in range(5))):
        result = solve_fpt(game)
        dot = export_dot(game, result)
        bold = set(re.findall(r'^  "(.+)" -> "(.+)" \[penwidth=2\];$', dot, re.M))
        written = {
            (row["vertex"], row["successor"])
            for strategy in (result.eve_strategy, result.adam_strategy)
            for row in strategy_to_json(game.arena, strategy)["moves"]
        }
        assert bold == written
