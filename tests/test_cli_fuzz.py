"""Mutated input documents through `cli.main`: every run ends in an exit
code of the README's table, and no exception escapes."""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import event, given, settings, strategies as st

from genreach import (
    COLOR_OBS,
    FULL_CLASS,
    GenParams,
    generate,
    parse_game,
    serialize_game,
    solve_fpt,
    strategy_to_json,
)
from genreach.cli import METHODS, main
from genreach.fileformat import MAX_COLORS, MAX_VARIABLES
from conftest import DEMO_TEXT, QBF1_TEXT
from helpers import mutated

# Counts stay small or go over a limit, so every case runs in milliseconds:
# a count at a limit is legal input that takes seconds to solve.
_INTEGERS = st.one_of(
    st.integers(-2, 5),
    st.sampled_from([MAX_COLORS + 1, MAX_VARIABLES + 1]),
    st.integers(min_value=1 << 40),
)
_BUDGETS = st.integers(0, 2000).map(str)
_FLOWER2_TEXT = serialize_game(generate(GenParams("flower", k=2)))
_GAMES = st.sampled_from([DEMO_TEXT, _FLOWER2_TEXT]).flatmap(lambda text: mutated(text, _INTEGERS))
_DEMO = parse_game(DEMO_TEXT)
_SOLVED = solve_fpt(_DEMO)
_STRATEGY_TEXTS = [
    json.dumps(strategy_to_json(_DEMO.arena, strategy), indent=2)
    for strategy in (_SOLVED.eve_strategy, _SOLVED.adam_strategy)
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_cli(workdir, argv, *texts):
    """Write `texts` to files and run `main` on `argv` followed by them."""
    paths = []
    for i, text in enumerate(texts):
        path = workdir / f"input{i}"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # parse_qdimacs warns of free variables
        code = main([argv[0], *paths, *argv[1:]])
    return code, out.getvalue(), err.getvalue()


def check(code, out, err, codes, argv):
    event(f"exit {code}")
    assert code in codes, (argv, code, err)
    if code in (1, 2, 3, 6):
        assert out == "" and err.startswith("error: "), (argv, out, err)
    elif "--json" in argv:
        json.loads(out)


@settings(deadline=None, max_examples=150)
@given(_GAMES, st.sampled_from(METHODS), _BUDGETS,
       st.sampled_from([[], ["--json"], ["--emit-strategies"], ["--dot"]]))
def test_solve(workdir, text, method, budget, flags):
    argv = ["solve", "--method", method, *flags]
    if method == "minimax":
        argv += ["--budget", budget]
    check(*run_cli(workdir, argv, text), {0, 2, 3, 6}, argv)


@settings(deadline=None, max_examples=150)
@given(mutated(QBF1_TEXT, _INTEGERS), st.sampled_from(["game", "brute", "both"]))
def test_qbf(workdir, text, via):
    argv = ["qbf", "--via", via, "--json"]
    check(*run_cli(workdir, argv, text), {0, 2, 3}, argv)


@settings(deadline=None, max_examples=150)
@given(mutated("p cnf 3 3\n1 2 0\n-1 2 0\n-2 3 0\n", _INTEGERS))
def test_twosat(workdir, text):
    argv = ["twosat", "--json"]
    check(*run_cli(workdir, argv, text), {0, 2}, argv)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(_STRATEGY_TEXTS).flatmap(lambda text: mutated(text, _INTEGERS)),
       st.sampled_from(["all", "init"]))
def test_verify(workdir, strategy_text, region):
    argv = ["verify", "--region", region, "--json"]
    check(*run_cli(workdir, argv, DEMO_TEXT, strategy_text), {0, 2, 3, 5}, argv)


@settings(deadline=None, max_examples=150)
@given(_GAMES, st.sampled_from(["eve", "adam"]), st.integers(0, 2), _BUDGETS,
       st.sampled_from([COLOR_OBS, FULL_CLASS]))
def test_minmem(workdir, text, player, bound, budget, machine_class):
    argv = ["minmem", "--player", player, "--bound", str(bound), "--budget", budget,
            "--class", machine_class, "--json"]
    # A bound of 0 is a usage error, once the game parses and has an init.
    codes = {0, 2, 3, 6} if bound else {1, 2, 3}
    check(*run_cli(workdir, argv, text), codes, argv)
