"""Reachability order, the singleton solver, 2-SAT and the one-player solver."""

import itertools
import warnings

import pytest
from hypothesis import given, strategies as st

from genreach import (
    Arena,
    Game,
    GameParseError,
    Objective,
    Owner,
    TwoSatFormula,
    UnsupportedInputError,
    attractor,
    parse_dimacs_cnf2,
    parse_qdimacs,
    solve_fpt,
    solve_oneplayer_size2,
    solve_singleton,
    trace_play,
    two_sat_solve,
    verify_strategy,
)
from helpers import random_game

E, A = Owner.EVE, Owner.ADAM


def eve_game(names, edges, color_sets, init=0, owners=None):
    ix = {name: i for i, name in enumerate(names)}
    arena = Arena.from_edges(
        names,
        owners or [E] * len(names),
        [(ix[u], ix[v]) for u, v in edges],
    )
    objective = Objective.from_sets(
        len(names), [{ix[v] for v in s} for s in color_sets]
    )
    return Game(arena, objective, init)


def test_attractors_order_a_path():
    # On a one-player path the attractor of a vertex is everything
    # upstream of it, so x lies in z's attractor and not the reverse.
    game = eve_game(
        ["w", "x", "y", "z"],
        [("w", "x"), ("x", "y"), ("y", "z"), ("z", "z")],
        [],
    )
    x, z = 1, 3
    assert attractor(game.arena, [x]).attractor == {0, x}
    assert attractor(game.arena, [z]).attractor == {0, x, 2, z}


def test_attractors_leave_sibling_sinks_incomparable():
    game = eve_game(
        ["s", "p", "q"],
        [("s", "p"), ("s", "q"), ("p", "p"), ("q", "q")],
        [],
    )
    p, q = 1, 2
    assert attractor(game.arena, [p]).attractor == {0, p}
    assert attractor(game.arena, [q]).attractor == {0, q}


def test_solve_singleton_total_chain():
    game = eve_game(
        ["w", "x", "y", "z"],
        [("w", "x"), ("x", "y"), ("y", "z"), ("z", "z")],
        [{"y"}, {"z"}],
    )
    result = solve_singleton(game)
    assert result.method == "singleton"
    assert result.stats == {"total": True, "visit_order": [1, 2]}
    assert result.eve_region == frozenset({0, 1, 2})
    assert result.eve_strategy.memory.states == 2
    assert verify_strategy(game, result.eve_strategy, result.eve_region).winning
    assert verify_strategy(game, result.adam_strategy, result.adam_region).winning


def test_solve_singleton_visit_order_respects_dominance():
    # The second color sits upstream of the first, so it is visited first.
    game = eve_game(
        ["w", "x", "y", "z"],
        [("w", "x"), ("x", "y"), ("y", "z"), ("z", "z")],
        [{"z"}, {"y"}],
    )
    result = solve_singleton(game)
    assert result.stats["visit_order"] == [2, 1]


def test_solve_singleton_incomparable_targets():
    game = eve_game(
        ["s", "p", "q"],
        [("s", "p"), ("s", "q"), ("p", "p"), ("q", "q")],
        [{"p"}, {"q"}],
        owners=[E, A, A],
    )
    result = solve_singleton(game)
    assert result.eve_region == frozenset()
    assert result.stats == {"total": False, "incomparable_colors": (1, 2)}
    assert result.adam_strategy.memory.states == 2
    assert verify_strategy(game, result.adam_strategy, range(3)).winning
    assert solve_fpt(game).eve_region == frozenset()


def test_solve_singleton_adam_strategy_holds_every_move_it_plays():
    # Plays that start inside the first target's attractor meet Adam in
    # state 0 there; the strategy must hold a move for him, not leave
    # the cell empty.
    checked = 0
    for seed in range(300):
        game = random_game(
            seed, n=5 + seed % 6, k=1 + seed % 3, density=0.35, color_size=(1, 1)
        )
        result = solve_singleton(game)
        if result.stats["total"]:
            continue
        checked += 1
        check = verify_strategy(game, result.adam_strategy, result.adam_region)
        assert check.winning, seed
    assert checked >= 8


def test_solve_singleton_no_colors():
    game = eve_game(["a"], [("a", "a")], [])
    result = solve_singleton(game)
    assert result.eve_region == frozenset({0})
    assert result.stats == {"total": True, "visit_order": []}


def test_solve_singleton_rejects_wide_colors(demo):
    with pytest.raises(UnsupportedInputError, match="color 1 has 2 vertices"):
        solve_singleton(demo)


def test_solve_singleton_agrees_with_general_solver():
    for seed in range(60):
        game = random_game(seed, n=8, k=2, density=0.3, color_size=(1, 1))
        special = solve_singleton(game)
        general = solve_fpt(game)
        assert special.eve_region == general.eve_region, f"seed {seed}"
        if special.stats["total"] and special.eve_region and seed % 5 == 0:
            check = verify_strategy(game, special.eve_strategy, special.eve_region)
            assert check.winning
        if special.adam_region and seed % 5 == 0:
            check = verify_strategy(game, special.adam_strategy, special.adam_region)
            assert check.winning


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product((False, True), repeat=num_vars):
        if all(
            (bits[abs(a) - 1] == (a > 0)) or (bits[abs(b) - 1] == (b > 0))
            for a, b in clauses
        ):
            return True
    return False


def test_two_sat_satisfiable():
    formula = TwoSatFormula(2, ((1, 2), (-1, 2)))
    result = two_sat_solve(formula)
    assert result.satisfiable
    assert result.assignment[1] is True
    assert result.conflict_var is None


def test_two_sat_implication_chain():
    formula = TwoSatFormula(3, ((1, 1), (-1, 2), (-2, 3)))
    result = two_sat_solve(formula)
    assert result.assignment == (True, True, True)


def test_two_sat_unsatisfiable():
    formula = TwoSatFormula(2, ((1, 2), (1, -2), (-1, 2), (-1, -2)))
    result = two_sat_solve(formula)
    assert not result.satisfiable
    assert result.assignment is None
    assert result.conflict_var == 1


def test_two_sat_formula_validation():
    with pytest.raises(ValueError, match="literal 0"):
        TwoSatFormula(1, ((0, 1),))
    with pytest.raises(ValueError, match="literal 5"):
        TwoSatFormula(2, ((5, 1),))


@given(st.data())
def test_two_sat_matches_brute_force(data):
    num_vars = data.draw(st.integers(1, 6))
    lits = st.integers(-num_vars, num_vars).filter(lambda v: v != 0)
    clauses = data.draw(st.lists(st.tuples(lits, lits), max_size=12))
    formula = TwoSatFormula(num_vars, tuple(clauses))
    result = two_sat_solve(formula)
    assert result.satisfiable == brute_force_sat(num_vars, clauses)


DIMACS_OK = """\
c tiny instance
p cnf 3 3
1 -2 0
-1 3 0
2 0
% trailing garbage the format allows
ignored
"""


def test_parse_dimacs():
    formula = parse_dimacs_cnf2(DIMACS_OK)
    assert formula.num_vars == 3
    assert formula.clauses == ((1, -2), (-1, 3), (2, 2))
    assert two_sat_solve(formula).satisfiable


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 2 0\n", "clause before problem line"),
        ("p cnf 2\n", "problem line must be"),
        ("p cnf 2 1\np cnf 2 1\n1 2 0\n", "duplicate problem line"),
        ("p cnf 3 1\n1 2 3 0\n", "at most two allowed"),
        ("p cnf 2 1\n1 9 0\n", "literal 9 out of range"),
        ("p cnf 2 1\n1 2\n", "unterminated clause"),
        ("p cnf 2 2\n1 2 0\n", "declared 2 clauses, found 1"),
        ("p cnf 2 1\n0\n", "empty clause"),
        ("p cnf 2 1\nx y 0\n", "expected an integer"),
        ("", "missing problem line"),
    ],
)
def test_parse_dimacs_errors(text, message):
    with pytest.raises(GameParseError, match=message):
        parse_dimacs_cnf2(text)


def test_parse_dimacs_line_numbers():
    with pytest.raises(GameParseError) as err:
        parse_dimacs_cnf2("p cnf 1 1\nc fine\n1 1 1 0\n")
    assert str(err.value).startswith("line 3:")


@given(st.data())
def test_cnf_reads_the_same_as_qdimacs(data):
    # Any width-2 CNF text is also QDIMACS with every variable free; the
    # two parsers agree on its clauses, the 2-SAT side doubling units.
    num_vars = data.draw(st.integers(0, 5))
    lits = st.integers(1, max(num_vars, 1)).flatmap(lambda v: st.sampled_from((v, -v)))
    width = st.lists(lits, min_size=1, max_size=2)
    clauses = data.draw(st.lists(width, max_size=8)) if num_vars else []
    lines = ["c generated", f"p cnf {num_vars} {len(clauses)}", ""]
    for token in (t for clause in clauses for t in (*clause, 0)):
        lines[-1] += f" {token}"
        if data.draw(st.booleans()):
            lines += ["c between"] * data.draw(st.integers(0, 1)) + [""]
    if data.draw(st.booleans()):
        lines += ["%", "0"]
    text = "\n".join(lines) + "\n"

    cnf = parse_dimacs_cnf2(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        qbf = parse_qdimacs(text)
    assert cnf.num_vars == qbf.num_vars == num_vars
    assert qbf.clauses == tuple(map(tuple, clauses))
    assert cnf.clauses == tuple(
        (c[0], c[0]) if len(c) == 1 else tuple(c) for c in clauses
    )


def test_oneplayer2_two_member_color():
    game = eve_game(
        ["s", "a", "b"],
        [("s", "a"), ("s", "b"), ("a", "a"), ("b", "b")],
        [{"a", "b"}],
    )
    result = solve_oneplayer_size2(game)
    assert result.method == "oneplayer2"
    assert result.eve_region == frozenset({0, 1, 2})
    assert result.stats == {
        "variables": 2, "clauses": 2, "incomparable_pairs": 1, "sat_calls": 3
    }
    assert result.witness is not None
    play = trace_play(game, result.witness)
    assert play.masks[-1] == game.objective.full_mask


def test_oneplayer2_one_sat_call_per_cut():
    # x and y share a cycle and so the cut {c}; s, a, b and c each have
    # their own cut: five 2-SAT calls for six vertices.
    game = eve_game(
        ["s", "x", "y", "a", "b", "c"],
        [("s", "x"), ("x", "y"), ("y", "x"), ("y", "a"), ("a", "b"),
         ("b", "b"), ("s", "c"), ("c", "c")],
        [{"a", "c"}, {"b"}, {"x", "y"}],
    )
    result = solve_oneplayer_size2(game)
    assert result.eve_region == frozenset({0, 1, 2})
    assert result.witness == (0, 1, 2, 3, 4)
    assert result.stats == {
        "variables": 5, "clauses": 7, "incomparable_pairs": 4, "sat_calls": 5
    }


def test_oneplayer2_unsatisfiable_start():
    # Both colors are exclusive sinks: no single path visits both.
    game = eve_game(
        ["s", "a", "b"],
        [("s", "a"), ("s", "b"), ("a", "a"), ("b", "b")],
        [{"a"}, {"b"}],
    )
    result = solve_oneplayer_size2(game)
    assert result.eve_region == frozenset()
    assert result.witness is None
    assert solve_fpt(game).eve_region == frozenset()


def test_oneplayer2_rejects_opponent_vertices(demo):
    with pytest.raises(UnsupportedInputError, match="vertex 'a' belongs to the opponent"):
        solve_oneplayer_size2(demo)


def test_oneplayer2_rejects_wide_colors():
    game = eve_game(
        ["x", "y", "z"],
        [("x", "y"), ("y", "z"), ("z", "x")],
        [{"x", "y", "z"}],
    )
    with pytest.raises(UnsupportedInputError, match="color 1 has 3 vertices"):
        solve_oneplayer_size2(game)


def test_oneplayer2_empty_color():
    game = eve_game(["x"], [("x", "x")], [set()])
    result = solve_oneplayer_size2(game)
    assert result.eve_region == frozenset()
    assert result.stats == {"empty_color": 1}


def test_oneplayer2_no_colors():
    game = eve_game(["x"], [("x", "x")], [])
    result = solve_oneplayer_size2(game)
    assert result.eve_region == frozenset({0})
    assert result.witness == (0,)
    assert result.stats == {"variables": 0, "clauses": 0}


def test_oneplayer2_agrees_with_general_solver():
    for seed in range(60):
        game = random_game(
            seed, n=7, k=2, density=0.3, eve_ratio=1.0, color_size=(1, 2)
        )
        special = solve_oneplayer_size2(game)
        general = solve_fpt(game)
        assert special.eve_region == general.eve_region, f"seed {seed}"
        if game.init in special.eve_region:
            play = trace_play(game, special.witness)
            assert play.masks[-1] == game.objective.full_mask
            assert len(special.witness) - 1 <= game.arena.n * game.k


def test_oneplayer2_agrees_at_benchmark_sizes():
    # The shape of the benchmark's oneplayer2 games, where many vertices
    # share a cut and the per-cut cache does its work.
    for n in (65, 110, 155, 200):
        for k in range(1, 7):
            for seed in range(4):
                game = random_game(
                    seed, n=n, k=k, density=3 / n, eve_ratio=1.0, color_size=(2, 2)
                )
                special = solve_oneplayer_size2(game)
                assert special.eve_region == solve_fpt(game).eve_region, (n, k, seed)
                assert special.stats["sat_calls"] <= n
                if game.init in special.eve_region:
                    play = trace_play(game, special.witness)
                    assert play.vertices[0] == game.init
                    assert play.masks[-1] == game.objective.full_mask
