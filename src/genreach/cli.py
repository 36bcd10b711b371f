"""Command-line front end: solve, qbf, gen, verify, minmem, twosat.

Reports are JSON documents on stdout when --json is set (summaries then
go to stderr); exit codes are a stable contract:

    0 success         3 invalid game or cap exceeded   6 budget exhausted
    1 usage           4 decision routes disagree
    2 parse error     5 strategy refuted
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from . import __version__
from .attractor import solve_opponent_player
from .errors import (
    BudgetExceededError,
    GameParseError,
    GenReachError,
    InitRequiredError,
)
from .fileformat import export_dot, parse_game, serialize_game
from .generate import FAMILIES, RANDOM, GenParams, generate
from .lab import (
    COLOR_OBS,
    FULL_CLASS,
    min_memory_search,
    minimax_oracle,
    verify_strategy,
)
from .model import DEFAULT_COLOR_CAP, Game, Owner
from .product import solve_fpt
from .qbf import eval_qbf_bruteforce, parse_qdimacs, qbf_to_game
from .strategies import SolveResult, strategy_from_json, strategy_to_json
from .subclasses import parse_dimacs_cnf2, solve_oneplayer_size2, solve_singleton, two_sat_solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_DISAGREE = 4
EXIT_REFUTED = 5
EXIT_BUDGET = 6

METHODS = ("auto", "fpt", "singleton", "oneplayer2", "opponent", "minimax")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_text(path: Path) -> tuple[str, str]:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise GameParseError(f"cannot read {path}: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GameParseError(
            f"{path} is not UTF-8: byte {exc.object[exc.start]:#04x} at offset {exc.start}"
        ) from None
    return text, _digest(data)


def _exit_code(exc: GenReachError) -> int:
    if isinstance(exc, GameParseError):
        return EXIT_PARSE
    if isinstance(exc, BudgetExceededError):
        return EXIT_BUDGET
    return EXIT_INVALID


def _report(args, payload: dict, digest: str | None, seconds: float) -> dict:
    return {
        "command": args.command_echo,
        "version": __version__,
        "input_sha256": digest,
        "seconds": round(seconds, 6),
        **payload,
    }


def _emit(args, report: dict, summary: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2))
        print(summary, file=sys.stderr)
    else:
        print(summary)


def _names(game: Game, vertices) -> list[str]:
    return [game.arena.names[v] for v in sorted(vertices)]


def _solve_game(game: Game, method: str, cap: int, budget: int | None) -> SolveResult:
    if method == "auto":
        method = pick_method(game)
    if method == "fpt":
        return solve_fpt(game, cap=cap)
    if method == "singleton":
        return solve_singleton(game)
    if method == "oneplayer2":
        return solve_oneplayer_size2(game)
    if method == "opponent":
        return solve_opponent_player(game)
    assert method == "minimax"
    winner = minimax_oracle(game, budget=budget)
    n = game.arena.n
    eve = frozenset(range(n)) if winner is Owner.EVE else frozenset()
    # The oracle only decides the init vertex; regions echo that verdict.
    result = SolveResult("minimax", eve, frozenset(range(n)) - eve)
    result.stats["decides"] = "init"
    return result


def pick_method(game: Game) -> str:
    """The `auto` dispatch rule; never picks a method that would reject."""
    sizes = [len(s) for s in game.objective.color_sets]
    owners_eve = [game.arena.is_eve(v) for v in range(game.arena.n)]
    if all(size == 1 for size in sizes):
        return "singleton"
    if not any(owners_eve):
        return "opponent"
    if all(owners_eve) and all(size <= 2 for size in sizes):
        return "oneplayer2"
    return "fpt"


def _solve_payload(game: Game, result: SolveResult, emit_strategies: bool) -> dict:
    init = game.init
    payload = {
        "method": result.method,
        "n": game.arena.n,
        "k": game.k,
        "eve_region": _names(game, result.eve_region),
        "adam_region": _names(game, result.adam_region),
        "winner_from_init": None if init is None else result.winner(init).value,
        "stats": _jsonable(result.stats),
    }
    if result.method == "minimax":
        # Regions other than init are not decided by this method.
        payload["eve_region"] = payload["adam_region"] = None
    if result.witness is not None:
        payload["witness"] = [game.arena.names[v] for v in result.witness]
    if emit_strategies:
        strategies = {}
        for label, strategy in (("eve", result.eve_strategy), ("adam", result.adam_strategy)):
            if strategy is not None:
                strategies[label] = strategy_to_json(game.arena, strategy)
        payload["strategies"] = strategies
    return payload


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_jsonable(v) for v in items]
    return value


def cmd_solve(args) -> int:
    path = Path(args.file)
    if path.is_dir():
        return _solve_batch(args, path)
    text, digest = _read_text(path)
    started = time.perf_counter()
    game = parse_game(text)
    result = _solve_game(game, args.method, args.cap, args.budget)
    seconds = time.perf_counter() - started
    if args.dot:
        print(export_dot(game, result))
        return EXIT_OK
    payload = _solve_payload(game, result, args.emit_strategies)
    report = _report(args, payload, digest, seconds)
    winner = payload["winner_from_init"]
    summary = (
        f"{path.name}: method {result.method}, "
        + (f"winner {winner} from init" if winner else f"eve wins {len(result.eve_region)}/{game.arena.n} vertices")
    )
    _emit(args, report, summary)
    return EXIT_OK


def _solve_batch(args, directory: Path) -> int:
    if args.dot:
        raise GameParseError("--dot cannot render a directory")
    reports = []
    summaries = []
    code = EXIT_OK
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        try:
            text, digest = _read_text(path)
            started = time.perf_counter()
            game = parse_game(text)
            result = _solve_game(game, args.method, args.cap, args.budget)
        except GenReachError as exc:
            # One bad file is reported in place; the rest are still solved.
            file_code = _exit_code(exc)
            code = max(code, file_code)
            reports.append({"file": path.name, "error": str(exc), "exit_code": file_code})
            summaries.append(f"{path.name}: error: {exc}")
            continue
        seconds = time.perf_counter() - started
        payload = {"file": path.name, **_solve_payload(game, result, args.emit_strategies)}
        reports.append(_report(args, payload, digest, seconds))
        winner = payload["winner_from_init"]
        summaries.append(
            f"{path.name}: method {result.method}, "
            + (f"winner {winner}" if winner else f"eve {len(result.eve_region)}/{game.arena.n}")
        )
    summary = "\n".join(summaries) if summaries else "no files"
    if args.json:
        print(json.dumps(reports, indent=2))
        print(summary, file=sys.stderr)
    else:
        print(summary)
    return code


def cmd_qbf(args) -> int:
    text, digest = _read_text(Path(args.file))
    started = time.perf_counter()
    formula = parse_qdimacs(text)
    payload: dict = {
        "via": args.via,
        "variables": formula.num_vars,
        "clauses": len(formula.clauses),
    }
    game_value = brute_value = None
    if args.via in ("game", "both"):
        game = qbf_to_game(formula)
        result = solve_fpt(game, cap=args.cap)
        game_value = game.init in result.eve_region
        payload["game_value"] = game_value
        payload["game_stats"] = _jsonable(result.stats)
    if args.via in ("brute", "both"):
        brute_value = eval_qbf_bruteforce(formula, cap=args.cap)
        payload["brute_value"] = brute_value
    value = game_value if game_value is not None else brute_value
    payload["value"] = value
    seconds = time.perf_counter() - started
    if args.via == "both":
        payload["agreement"] = game_value == brute_value
        if not payload["agreement"]:
            report = _report(args, payload, digest, seconds)
            _emit(args, report, "route disagreement: game route and brute force differ")
            return EXIT_DISAGREE
    report = _report(args, payload, digest, seconds)
    _emit(args, report, f"{Path(args.file).name}: {'true' if value else 'false'}")
    return EXIT_OK


def cmd_gen(args) -> int:
    params = GenParams(
        family=args.family,
        k=args.k,
        n=getattr(args, "n", 0),
        density=getattr(args, "density", 0.0),
        eve_ratio=getattr(args, "eve_ratio", 0.5),
        color_size=(getattr(args, "color_min", 1), getattr(args, "color_max", 2)),
        seed=getattr(args, "seed", None),
    )
    try:
        game = generate(params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = serialize_game(game)
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}: {game.arena.n} vertices, {game.k} colors", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    text, digest = _read_text(Path(args.game))
    game = parse_game(text)
    strategy_text, _ = _read_text(Path(args.strategy))
    try:
        data = json.loads(strategy_text)
        strategy = strategy_from_json(game.arena, data)
    except (ValueError, KeyError, TypeError) as exc:
        if isinstance(exc, GenReachError):
            raise
        raise GameParseError(f"bad strategy document: {exc}") from None
    started = time.perf_counter()
    if args.region == "init":
        if game.init is None:
            raise InitRequiredError("--region init needs a game with an init vertex")
        claimed = frozenset([game.init])
    else:
        solved = solve_fpt(game, cap=args.cap)
        claimed = solved.eve_region if strategy.player is Owner.EVE else solved.adam_region
    outcome = verify_strategy(game, strategy, claimed)
    seconds = time.perf_counter() - started
    payload = {
        "player": strategy.player.value,
        "region": args.region,
        "claimed": _names(game, claimed),
        "winning": outcome.winning,
        "states_declared": strategy.memory.states,
        "states_used": len(outcome.states_used),
    }
    if not outcome.winning:
        payload["failing_vertex"] = game.arena.names[outcome.failing_vertex]
        payload["counterexample"] = [
            game.arena.names[v] for v in outcome.counterexample.vertices
        ]
    report = _report(args, payload, digest, seconds)
    if outcome.winning:
        _emit(args, report, f"winning on all {len(claimed)} claimed vertices")
        return EXIT_OK
    _emit(args, report, f"refuted from {payload['failing_vertex']}")
    return EXIT_REFUTED


def cmd_minmem(args) -> int:
    text, digest = _read_text(Path(args.game))
    game = parse_game(text)
    player = Owner.EVE if args.player == "eve" else Owner.ADAM
    started = time.perf_counter()
    result = min_memory_search(
        game, player, args.bound, machine_class=args.machine_class, budget=args.budget
    )
    seconds = time.perf_counter() - started
    payload = {
        "player": args.player,
        "machine_class": result.machine_class,
        "bound": args.bound,
        "found": result.strategy is not None,
        "states": result.states,
        "refuted": result.refuted,
        "expansions": result.expansions,
    }
    if result.strategy is not None:
        payload["strategy"] = strategy_to_json(
            game.arena, result.strategy, start=[game.init]
        )
    report = _report(args, payload, digest, seconds)
    if result.strategy is None:
        summary = f"NONE within {args.bound} states ({result.refuted} machines refuted)"
    else:
        summary = f"minimum {result.states} states ({result.machine_class} class)"
    _emit(args, report, summary)
    return EXIT_OK


def cmd_twosat(args) -> int:
    text, digest = _read_text(Path(args.file))
    started = time.perf_counter()
    formula = parse_dimacs_cnf2(text)
    result = two_sat_solve(formula)
    seconds = time.perf_counter() - started
    payload = {
        "variables": formula.num_vars,
        "clauses": len(formula.clauses),
        "satisfiable": result.satisfiable,
        "assignment": None if result.assignment is None else list(result.assignment),
        "conflict_var": result.conflict_var,
    }
    report = _report(args, payload, digest, seconds)
    _emit(args, report, "satisfiable" if result.satisfiable else f"unsatisfiable (variable {result.conflict_var})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="genreach", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"genreach {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    solve = sub.add_parser("solve", help="solve a game file (or every file in a directory)")
    solve.add_argument("file")
    solve.add_argument("--method", choices=METHODS, default="auto")
    solve.add_argument("--json", action="store_true")
    solve.add_argument("--dot", action="store_true", help="emit graphviz instead of a report")
    solve.add_argument("--emit-strategies", action="store_true")
    solve.add_argument("--cap", type=int, default=DEFAULT_COLOR_CAP, help="color-count cap")
    solve.add_argument("--budget", type=int, default=None, help="minimax node budget")
    solve.set_defaults(func=cmd_solve)

    qbf = sub.add_parser("qbf", help="decide a QDIMACS formula")
    qbf.add_argument("file")
    qbf.add_argument("--via", choices=("game", "brute", "both"), default="game")
    qbf.add_argument("--json", action="store_true")
    qbf.add_argument("--cap", type=int, default=DEFAULT_COLOR_CAP,
                     help="cap on colors (game route) and variables (brute force)")
    qbf.set_defaults(func=cmd_qbf)

    gen = sub.add_parser("gen", help="generate a game file")
    families = gen.add_subparsers(dest="family", required=True, parser_class=_Parser)
    for family in FAMILIES:
        fam = families.add_parser(family)
        fam.add_argument("-o", "--output", default=None)
        if family == "fig5":
            fam.set_defaults(k=4)
        else:
            fam.add_argument("--k", type=int, required=True)
        if family == RANDOM:
            fam.add_argument("--n", type=int, required=True)
            fam.add_argument("--density", type=float, default=0.1)
            fam.add_argument("--eve-ratio", type=float, default=0.5, dest="eve_ratio")
            fam.add_argument("--color-min", type=int, default=1, dest="color_min")
            fam.add_argument("--color-max", type=int, default=2, dest="color_max")
            fam.add_argument("--seed", type=int, required=True)
        fam.set_defaults(func=cmd_gen)

    verify = sub.add_parser("verify", help="check a strategy JSON against a game")
    verify.add_argument("game")
    verify.add_argument("strategy")
    verify.add_argument("--region", choices=("all", "init"), default="all",
                        help="claim the player's whole winning region, or just init")
    verify.add_argument("--json", action="store_true")
    verify.add_argument("--cap", type=int, default=DEFAULT_COLOR_CAP)
    verify.set_defaults(func=cmd_verify)

    minmem = sub.add_parser("minmem", help="search for a minimal winning machine")
    minmem.add_argument("game")
    minmem.add_argument("--player", choices=("eve", "adam"), required=True)
    minmem.add_argument("--bound", type=int, required=True)
    minmem.add_argument("--class", choices=(COLOR_OBS, FULL_CLASS), default=COLOR_OBS,
                        dest="machine_class",
                        help="memory updates observe color sets, or full edges")
    minmem.add_argument("--budget", type=int, default=None)
    minmem.add_argument("--json", action="store_true")
    minmem.set_defaults(func=cmd_minmem)

    twosat = sub.add_parser("twosat", help="solve a width-2 DIMACS CNF file")
    twosat.add_argument("file")
    twosat.add_argument("--json", action="store_true")
    twosat.set_defaults(func=cmd_twosat)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.command_echo = list(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except GenReachError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
