"""QDIMACS parsing, brute-force evaluation and the game translation."""

import itertools
import random

import pytest

from genreach import (
    GameParseError,
    Owner,
    QBFFormula,
    UnsupportedInputError,
    eval_qbf_bruteforce,
    parse_qdimacs,
    qbf_to_game,
    solve_fpt,
)
from conftest import QBF1_TEXT


def game_value(formula):
    game = qbf_to_game(formula)
    return game.init in solve_fpt(game).eve_region


def test_parse_qdimacs():
    formula = parse_qdimacs(QBF1_TEXT)
    assert formula.num_vars == 3
    assert formula.prefix == (("a", 1), ("e", 2), ("a", 3))
    assert formula.clauses == ((1, -2), (-2, 3))


def test_parse_qdimacs_percent_ends_input():
    formula = parse_qdimacs(QBF1_TEXT + "%\n0\nnot a clause\n")
    assert formula == parse_qdimacs(QBF1_TEXT)


def test_parse_qdimacs_free_variables_warn():
    text = "p cnf 2 1\na 1 0\n1 2 0\n"
    with pytest.warns(UserWarning, match="treated as innermost existentials"):
        formula = parse_qdimacs(text)
    assert formula.prefix == (("a", 1), ("e", 2))


@pytest.mark.parametrize(
    "text, message",
    [
        ("a 1 0\n", "directive before problem line"),
        ("p cnf 1 1\n1 0\ne 1 0\n", "quantifier block after clauses"),
        ("p cnf 1 1\ne 1\n1 0\n", "quantifier line must end with 0"),
        ("p cnf 2 1\ne 1 1 0\n1 0\n", "variable 1 quantified twice"),
        ("p cnf 2 1\ne 1 9 0\n1 0\n", "variable 9 out of range"),
        ("p cnf 1 1\ne 1 0\n5 0\n", "literal 5 out of range, 1 variables declared"),
        ("p cnf 1 2\ne 1 0\n1 0\n", "declared 2 clauses, found 1"),
        ("p cnf 1 1\ne 1 0\n1\n", "unterminated clause"),
        ("", "missing problem line"),
        ("p cnf -1 0\n", "line 1: negative count in problem line"),
    ],
)
def test_parse_qdimacs_errors(text, message):
    with pytest.raises(GameParseError, match=message):
        parse_qdimacs(text)


def test_formula_validation():
    with pytest.raises(ValueError, match="quantified exactly once"):
        QBFFormula(2, (("e", 1), ("a", 1)), ((1,),))
    with pytest.raises(ValueError, match="quantify every variable"):
        QBFFormula(2, (("e", 1),), ((1,),))
    with pytest.raises(ValueError, match="unknown quantifier"):
        QBFFormula(1, (("q", 1),), ((1,),))
    with pytest.raises(ValueError, match="empty clause"):
        QBFFormula(1, (("e", 1),), ((),))


def test_bruteforce_known_values():
    formula = parse_qdimacs(QBF1_TEXT)
    assert eval_qbf_bruteforce(formula) is True
    # Flip the second clause so y=false no longer works: forall x fails.
    flipped = QBFFormula(3, formula.prefix, ((1, -2), (2, 3)))
    assert eval_qbf_bruteforce(flipped) is False


def test_bruteforce_cap():
    prefix = tuple(("e", v) for v in range(1, 6))
    formula = QBFFormula(5, prefix, ((1,),))
    with pytest.raises(UnsupportedInputError, match="exceed the brute-force cap"):
        eval_qbf_bruteforce(formula, cap=4)


def test_game_translation_structure():
    formula = parse_qdimacs(QBF1_TEXT)
    game = qbf_to_game(formula)
    arena = game.arena
    assert arena.names == ("v1", "x1", "nx1", "v2", "x2", "nx2", "v3", "x3", "nx3", "s")
    assert game.init == 0
    # Choice vertices belong to the quantifier's player.
    assert arena.owner[arena.index_of("v1")] is Owner.ADAM
    assert arena.owner[arena.index_of("v2")] is Owner.EVE
    assert arena.owner[arena.index_of("v3")] is Owner.ADAM
    # Colors are clauses over literal vertices.
    ix = arena.index_of
    assert game.objective.color_sets == (
        frozenset({ix("x1"), ix("nx2")}),
        frozenset({ix("nx2"), ix("x3")}),
    )
    sink = ix("s")
    assert arena.succ[sink] == (sink,)
    assert arena.succ[ix("x3")] == (sink,)


def test_empty_formula_is_true_on_both_routes():
    formula = parse_qdimacs("p cnf 0 0\n")
    game = qbf_to_game(formula)
    assert game.arena.names == ("s",) and game.k == 0 and game.init == 0
    assert game_value(formula) is True
    assert eval_qbf_bruteforce(formula) is True


def test_game_route_decides_demo_formula():
    formula = parse_qdimacs(QBF1_TEXT)
    assert game_value(formula) is True
    flipped = QBFFormula(3, formula.prefix, ((1, -2), (2, 3)))
    assert game_value(flipped) is False


def test_game_route_matches_bruteforce_on_random_formulas():
    rng = random.Random(123)
    for trial in range(40):
        num_vars = rng.randint(1, 5)
        prefix = tuple(
            (rng.choice("ea"), v) for v in rng.sample(range(1, num_vars + 1), num_vars)
        )
        clauses = tuple(
            tuple(
                rng.choice((v, -v))
                for v in rng.sample(range(1, num_vars + 1), rng.randint(1, num_vars))
            )
            for _ in range(rng.randint(1, 6))
        )
        formula = QBFFormula(num_vars, prefix, clauses)
        assert game_value(formula) == eval_qbf_bruteforce(formula), f"trial {trial}"


def test_all_quantifier_shapes_on_two_variables():
    # Exhaust both quantifier patterns over x1 x2 for a fixed clause set
    # against directly computed truth.
    clauses = ((1, 2), (-1, -2))
    for quants in itertools.product("ea", repeat=2):
        prefix = tuple((q, v) for q, v in zip(quants, (1, 2)))
        formula = QBFFormula(2, prefix, clauses)
        assert game_value(formula) == eval_qbf_bruteforce(formula), quants
