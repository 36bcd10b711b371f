"""End-to-end command-line behavior, including the exit-code contract."""

import hashlib
import json

import pytest

from genreach import (
    GenParams,
    generate,
    parse_game,
    serialize_game,
    strategy_from_json,
    verify_strategy,
)
from genreach.cli import main
from conftest import DEMO_TEXT, QBF1_TEXT

UNSAT_CNF = "p cnf 1 2\n1 0\n-1 0\n"


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.game"
    path.write_text(DEMO_TEXT)
    return path


@pytest.fixture
def flower_file(tmp_path):
    path = tmp_path / "flower2.game"
    path.write_text(serialize_game(generate(GenParams("flower", k=2))))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    code, out, err = run(capsys, "--version")
    assert code == 0
    assert out.startswith("genreach ")


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["solve"]) == 1
    assert main(["solve", "x", "--method", "sorcery"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_solve_summary(capsys, demo_file):
    code, out, err = run(capsys, "solve", demo_file)
    assert code == 0
    assert out == "demo.game: method fpt, winner eve from init\n"


def test_solve_json_report(capsys, demo_file):
    code, out, err = run(capsys, "solve", demo_file, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == ["solve", str(demo_file), "--json"]
    assert report["input_sha256"] == hashlib.sha256(DEMO_TEXT.encode()).hexdigest()
    assert report["method"] == "fpt"
    # Region names are listed in vertex order.
    assert report["eve_region"] == ["c", "a", "b"]
    assert report["adam_region"] == ["d"]
    assert report["winner_from_init"] == "eve"
    assert report["stats"]["adam_states"] == 4
    assert "winner eve" in err


def test_solve_emit_strategies(capsys, demo_file):
    code, out, _ = run(capsys, "solve", demo_file, "--json", "--emit-strategies")
    report = json.loads(out)
    game = parse_game(DEMO_TEXT)
    eve = strategy_from_json(game.arena, report["strategies"]["eve"])
    region = frozenset(game.arena.index_of(v) for v in report["eve_region"])
    assert verify_strategy(game, eve, region).winning
    adam = strategy_from_json(game.arena, report["strategies"]["adam"])
    assert verify_strategy(game, adam, [game.arena.index_of("d")]).winning


def test_solve_dot_output(capsys, demo_file):
    code, out, _ = run(capsys, "solve", demo_file, "--dot")
    assert code == 0
    assert out.startswith("digraph genreach {")
    assert "penwidth=2" in out


def test_solve_minimax_dot_fills_init_only(capsys, flower_file):
    # The oracle decides init alone; b1 and b2, where Adam wins, stay unfilled.
    code, out, _ = run(capsys, "solve", flower_file, "--method", "minimax", "--dot")
    assert code == 0
    filled = [line for line in out.splitlines() if "style=filled" in line]
    assert len(filled) == 1
    assert filled[0].startswith('  "h" [')


def test_solve_minimax_reports_init_only(capsys, demo_file):
    code, out, _ = run(capsys, "solve", demo_file, "--method", "minimax", "--json")
    report = json.loads(out)
    assert code == 0
    assert report["winner_from_init"] == "eve"
    assert report["eve_region"] is None and report["adam_region"] is None


def test_solve_batch_directory(capsys, tmp_path, demo_file, flower_file):
    code, out, err = run(capsys, "solve", tmp_path, "--json")
    assert code == 0
    reports = json.loads(out)
    assert [r["file"] for r in reports] == ["demo.game", "flower2.game"]
    assert all(r["winner_from_init"] == "eve" for r in reports)
    assert len(err.splitlines()) == 2


def test_solve_batch_reports_bad_files_and_carries_on(capsys, tmp_path, demo_file, flower_file):
    (tmp_path / "bad.game").write_bytes(DEMO_TEXT.encode() + b"\xff")
    code, out, err = run(capsys, "solve", tmp_path, "--json")
    assert code == 2
    reports = json.loads(out)
    assert [r["file"] for r in reports] == ["bad.game", "demo.game", "flower2.game"]
    bad = reports[0]
    assert set(bad) == {"file", "error", "exit_code"}
    assert bad["exit_code"] == 2 and "not UTF-8" in bad["error"]
    assert all(r["winner_from_init"] == "eve" for r in reports[1:])
    assert len(err.splitlines()) == 3
    # The exit code is the worst one in the batch: demo.game is refused by
    # the singleton method (3), which outranks the parse error (2).
    code, out, _ = run(capsys, "solve", tmp_path, "--json", "--method", "singleton")
    assert code == 3
    assert [r.get("exit_code") for r in json.loads(out)][:2] == [2, 3]


def test_solve_batch_rejects_dot(capsys, tmp_path, demo_file):
    code, _, err = run(capsys, "solve", tmp_path, "--dot")
    assert code == 1
    assert err == "error: --dot cannot render a directory\n"


def test_solve_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "solve", tmp_path / "nope.game")
    assert code == 2
    assert "cannot read" in err


def test_solve_parse_error(capsys, tmp_path):
    path = tmp_path / "broken.game"
    path.write_text("genreach 1\ncolors 1\nvertex a queen 1\nedge a a\n")
    code, _, err = run(capsys, "solve", path)
    assert code == 2
    assert "line 3" in err


def test_solve_undecodable_file(capsys, tmp_path):
    path = tmp_path / "latin1.game"
    path.write_bytes(DEMO_TEXT.encode() + b"\xff")
    code, _, err = run(capsys, "solve", path)
    assert code == 2
    assert "not UTF-8: byte 0xff" in err


def test_solve_cap_exceeded(capsys, demo_file):
    code, _, err = run(capsys, "solve", demo_file, "--cap", "1")
    assert code == 3
    assert "bitmask cap" in err


def test_solve_wrong_method_for_game(capsys, demo_file):
    code, _, err = run(capsys, "solve", demo_file, "--method", "singleton")
    assert code == 3
    assert "expected exactly one" in err
    code, _, err = run(capsys, "solve", demo_file, "--method", "opponent")
    assert code == 3


ALL_EVE_TRIPLE_TEXT = """\
genreach 1
colors 1
vertex a eve 1
vertex b eve 1
vertex c eve 1
edge a b
edge b c
edge c a
init a
"""
EVE_STRATEGY = '{"player": "eve", "states": 1, "initial": 0}'


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "demo.game", "--method", "oneplayer2"], "vertex 'a' belongs to the opponent"),
        (["solve", "triple.game", "--method", "oneplayer2"], "color 1 has 3 vertices, at most two allowed"),
        (["qbf", "two.qdimacs", "--cap", "1"], "2 color sets exceed the bitmask cap of 1"),
        (["minmem", "noinit.game", "--player", "eve", "--bound", "1"], "memory search needs a game with init"),
        (["solve", "noinit.game", "--method", "minimax"], "the minimax oracle needs a game with init"),
        (["verify", "noinit.game", "eve.json", "--region", "init"], "--region init needs a game with an init vertex"),
    ],
)
def test_unsupported_input_exits_three(capsys, tmp_path, argv, message):
    inputs = {
        "demo.game": DEMO_TEXT,
        "noinit.game": DEMO_TEXT.replace("init c\n", ""),
        "triple.game": ALL_EVE_TRIPLE_TEXT,
        "two.qdimacs": QBF1_TEXT,
        "eve.json": EVE_STRATEGY,
    }
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    argv = [tmp_path / a if a in inputs else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


def test_solve_minimax_budget(capsys, demo_file):
    code, _, err = run(capsys, "solve", demo_file, "--method", "minimax", "--budget", "1")
    assert code == 6
    assert "exceeded 1 nodes" in err


ONEPLAYER2_TEXT = """\
genreach 1
colors 2
vertex s eve
vertex x eve 1
vertex y eve 1 2
vertex z eve 2
edge s x
edge s z
edge x y
edge y y
edge z z
init s
"""
ADAM_ONLY = GenParams(
    "random", n=6, k=2, density=0.4, eve_ratio=0.0, color_size=(2, 2), seed=4
)


@pytest.mark.parametrize(
    "text, method, witness",
    [
        (serialize_game(generate(ADAM_ONLY)), "opponent", None),
        (DEMO_TEXT.replace("vertex a adam 1", "vertex a adam"), "singleton", None),
        # z is incomparable with x and y, so color 2 is y's and the
        # witness walks s, x, y.
        (ONEPLAYER2_TEXT, "oneplayer2", ["s", "x", "y"]),
    ],
    ids=["opponent", "singleton", "oneplayer2"],
)
def test_solve_auto_dispatch(capsys, tmp_path, text, method, witness):
    path = tmp_path / "g.game"
    path.write_text(text)
    code, out, _ = run(capsys, "solve", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["method"] == method
    assert report.get("witness") == witness


@pytest.mark.parametrize(
    "command, text, where",
    [
        ("solve", DEMO_TEXT.replace("colors 2", "colors \u0661"), "line 2: expected an integer, got '\u0661'"),
        ("solve", DEMO_TEXT.replace("colors 2", "colors +2"), "line 2: expected an integer, got '+2'"),
        ("solve", DEMO_TEXT.replace("vertex d adam 2", "vertex d adam 0_2"), "line 6: expected an integer, got '0_2'"),
        ("twosat", "p cnf 1_0 1\n1 0\n", "line 1: expected an integer, got '1_0'"),
        ("twosat", "p cnf 1 1\n+1 0\n", "line 2: expected an integer, got '+1'"),
        ("qbf", "p cnf 1 1\ne \u0661 0\n1 0\n", "line 2: expected an integer, got '\u0661'"),
    ],
    ids=["game-arabic-digit", "game-plus", "game-underscore", "cnf-underscore", "cnf-plus", "qdimacs-arabic-digit"],
)
def test_integers_are_ascii_digits(capsys, tmp_path, command, text, where):
    # Python's int() would read each of these tokens as a number.
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, path)
    assert code == 2
    assert out == ""
    assert where in err


def test_qbf_both_routes(capsys, tmp_path):
    path = tmp_path / "f.qdimacs"
    path.write_text(QBF1_TEXT)
    code, out, err = run(capsys, "qbf", path, "--via", "both", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["value"] is True
    assert report["game_value"] is True and report["brute_value"] is True
    assert report["agreement"] is True
    assert "true" in err


def test_qbf_brute_only(capsys, tmp_path):
    path = tmp_path / "f.qdimacs"
    path.write_text(QBF1_TEXT)
    code, out, _ = run(capsys, "qbf", path, "--via", "brute", "--json")
    report = json.loads(out)
    assert code == 0
    assert report["value"] is True and "game_stats" not in report


def test_qbf_parse_error(capsys, tmp_path):
    path = tmp_path / "f.qdimacs"
    path.write_text("p cnf 1 1\ne 1\n1 0\n")
    code, _, err = run(capsys, "qbf", path)
    assert code == 2
    assert "must end with 0" in err


def test_gen_writes_parseable_game(capsys):
    code, out, _ = run(capsys, "gen", "flower", "--k", "2")
    assert code == 0
    assert parse_game(out) == generate(GenParams("flower", k=2))


def test_gen_to_file(capsys, tmp_path):
    target = tmp_path / "out.game"
    code, out, err = run(
        capsys, "gen", "random", "--k", "2", "--n", "9", "--seed", "5", "-o", target
    )
    assert code == 0
    assert out == ""
    assert "9 vertices" in err
    assert parse_game(target.read_text()).arena.n == 9


def test_gen_fig5_takes_no_k(capsys):
    code, out, _ = run(capsys, "gen", "fig5")
    assert code == 0
    assert parse_game(out).arena.n == 14
    assert main(["gen", "fig5", "--k", "4"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "family, k, message",
    [
        ("picker", 4, "the picker needs an odd color count of at least 3"),
        ("flower", 0, "the flower needs at least one petal"),
        ("fig4", 3, "the two-part arena needs an even color count of at least 2"),
    ],
)
def test_gen_bad_family_count(capsys, family, k, message):
    # A family size the generator does not build is a bad command-line
    # value, like `gen random --density 1.5`.
    code, out, err = run(capsys, "gen", family, "--k", k)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_gen_bad_parameter_value(capsys):
    code, _, err = run(capsys, "gen", "random", "--k", "1", "--n", "5", "--seed", "1", "--density", "1.5")
    assert code == 1
    assert "density" in err
    code, out, err = run(capsys, "gen", "random", "--k", "1", "--n", "5", "--seed", "1", "--eve-ratio", "7")
    assert (code, out, err) == (1, "", "error: eve ratio must lie in [0, 1]\n")


def test_gen_random_requires_seed(capsys):
    assert main(["gen", "random", "--k", "1", "--n", "5"]) == 1
    capsys.readouterr()


def test_verify_region_all(capsys, tmp_path, demo_file):
    _, out, _ = run(capsys, "solve", demo_file, "--json", "--emit-strategies")
    capsys.readouterr()
    strategy = json.loads(out)["strategies"]["eve"]
    spath = tmp_path / "eve.json"
    spath.write_text(json.dumps(strategy))
    code, out, _ = run(capsys, "verify", demo_file, spath, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["winning"] is True
    assert report["claimed"] == ["c", "a", "b"]
    assert report["states_used"] <= report["states_declared"]


def test_verify_solver_strategy_outside_its_region(capsys, tmp_path, demo_file):
    # Adam's strategy starts only on his region {d}; the init vertex c is
    # Eve's, so the file gives no initial state there.
    _, out, _ = run(capsys, "solve", demo_file, "--json", "--emit-strategies")
    strategy = json.loads(out)["strategies"]["adam"]
    assert strategy["initial"] == {"per_vertex": {"d": 2}}
    spath = tmp_path / "adam.json"
    spath.write_text(json.dumps(strategy))
    code, _, err = run(capsys, "verify", demo_file, spath, "--region", "init")
    assert code == 3
    assert "no initial memory state for start vertex 0" in err
    code, _, _ = run(capsys, "verify", demo_file, spath)
    assert code == 0


def test_verify_refutes_bad_strategy(capsys, tmp_path, demo_file):
    bad = {
        "player": "eve",
        "states": 1,
        "initial": 0,
        "update": [],
        "moves": [{"vertex": "c", "state": 0, "successor": "d"}],
    }
    spath = tmp_path / "bad.json"
    spath.write_text(json.dumps(bad))
    code, out, err = run(capsys, "verify", demo_file, spath, "--region", "init", "--json")
    assert code == 5
    report = json.loads(out)
    assert report["winning"] is False
    assert report["failing_vertex"] == "c"
    assert report["counterexample"][0] == "c"
    assert "refuted from c" in err


def test_verify_rejects_malformed_strategy(capsys, tmp_path, demo_file):
    spath = tmp_path / "junk.json"
    for document, reason in (
        ('{"player": "eve"}', "'states'"),
        ('{"player": "eve", "states": 2, "initial": {"per_vertex": [1, 2]}}', "per_vertex must map"),
        ('{"player": "eve", "states": 2, "initial": {"per_vertex": "c"}}', "per_vertex must map"),
        # Counts and states are JSON integers only: no floats, strings or bools.
        ('{"player": "eve", "states": 2.9, "initial": 0}', "at least one memory state, as a JSON integer, not 2.9"),
        ('{"player": "eve", "states": 2, "initial": "1"}', "memory state '1' is not a JSON integer"),
        ('{"player": "eve", "states": 2, "initial": {"per_vertex": {"c": 1.0}}}', "memory state 1.0 is not a JSON integer"),
        ('{"player": "eve", "states": 2, "initial": true}', "memory state True is not a JSON integer"),
        ('{"player": "eve", "states": 2, "initial": 0, "moves": '
         '[{"vertex": "c", "state": true, "successor": "a"}]}', "memory state True is not a JSON integer"),
        ('{"player": "eve", "states": 2, "initial": 0, "update": '
         '[{"state": 0, "from": "c", "to": "a", "next_state": "1"}]}', "memory state '1' is not a JSON integer"),
        # Nesting deeper than the JSON decoder's recursion limit.
        ("[" * 200_000, "maximum recursion depth exceeded"),
    ):
        spath.write_text(document)
        code, _, err = run(capsys, "verify", demo_file, spath)
        assert code == 2, document
        assert err.startswith("error: bad strategy document: ") and reason in err, document


def test_minmem_found(capsys, flower_file):
    code, out, err = run(
        capsys, "minmem", flower_file, "--player", "eve", "--bound", "3", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["found"] is True and report["states"] == 3
    assert report["machine_class"] == "color-obs"
    assert "color-obs class" in err

    game = generate(GenParams("flower", k=2))
    machine = strategy_from_json(game.arena, report["strategy"])
    assert verify_strategy(game, machine, [game.init]).winning


def test_minmem_none_within_bound(capsys, flower_file):
    code, out, err = run(
        capsys,
        "minmem", flower_file, "--player", "eve", "--bound", "2",
        "--class", "full", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["found"] is False and report["states"] is None
    assert report["refuted"] == 5220
    assert "NONE within 2 states" in err


def test_minmem_bound_below_one_is_a_usage_error(capsys, flower_file):
    code, out, err = run(capsys, "minmem", flower_file, "--player", "eve", "--bound", "0")
    assert code == 1
    assert out == ""
    assert err == "error: the state bound must be at least 1\n"


def test_minmem_budget(capsys, flower_file):
    code, _, err = run(
        capsys,
        "minmem", flower_file, "--player", "eve", "--bound", "3", "--budget", "10",
    )
    assert code == 6
    assert "budget of 10 expansions" in err


def test_twosat(capsys, tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    code, out, err = run(capsys, "twosat", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["satisfiable"] is True
    assert report["assignment"][1] is True
    assert "satisfiable" in err

    path.write_text(UNSAT_CNF)
    code, out, _ = run(capsys, "twosat", path)
    assert code == 0
    assert "unsatisfiable (variable 1)" in out


def test_twosat_parse_error(capsys, tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 3 1\n1 2 3 0\n")
    code, _, err = run(capsys, "twosat", path)
    assert code == 2
    assert "at most two allowed" in err


def test_twosat_refuses_quantifier_lines(capsys, tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 2 1\ne 1 2 0\n1 2 0\n")
    code, out, err = run(capsys, "twosat", path)
    assert code == 2
    assert out == ""
    assert "line 2: quantifier line in a CNF file" in err
