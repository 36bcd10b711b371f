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
    assert code == 2
    assert "cannot render a directory" in err


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


def test_solve_minimax_budget(capsys, demo_file):
    code, _, err = run(capsys, "solve", demo_file, "--method", "minimax", "--budget", "1")
    assert code == 6
    assert "exceeded 1 nodes" in err


def test_solve_auto_dispatch(capsys, tmp_path):
    game = generate(
        GenParams(
            "random", n=6, k=2, density=0.4, eve_ratio=0.0, color_size=(2, 2), seed=4
        )
    )
    path = tmp_path / "adamonly.game"
    path.write_text(serialize_game(game))
    code, out, _ = run(capsys, "solve", path, "--json")
    assert code == 0
    assert json.loads(out)["method"] == "opponent"


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


def test_gen_bad_family_count(capsys):
    code, _, err = run(capsys, "gen", "picker", "--k", "4")
    assert code == 3
    assert "odd color count" in err


def test_gen_bad_parameter_value(capsys):
    code, _, err = run(capsys, "gen", "random", "--k", "1", "--n", "5", "--seed", "1", "--density", "1.5")
    assert code == 1
    assert "density" in err


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
    spath.write_text('{"player": "eve"}')
    code, _, err = run(capsys, "verify", demo_file, spath)
    assert code == 2
    assert "bad strategy document" in err


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
