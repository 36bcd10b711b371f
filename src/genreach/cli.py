"""Command-line front end: solve, qbf, gen, verify, minmem, twosat.

Reports are JSON documents on stdout when --json is set (summaries then
go to stderr); exit codes are a stable contract:

    0 success              3 invalid game or cap exceeded   6 budget exhausted
    1 usage, write error   4 decision routes disagree
    2 parse error          5 strategy refuted
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import io
import json
import os
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .attractor import solve_opponent_player
from .errors import (
    BudgetExceededError,
    GameParseError,
    GenReachError,
    UnsupportedInputError,
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
from .model import Game, Owner
from .product import solve_fpt
from .qbf import eval_qbf_bruteforce, parse_qdimacs, qbf_to_game
from .strategies import SolveResult, load_strategy, strategy_to_json
from .subclasses import parse_dimacs_cnf2, solve_oneplayer_size2, solve_singleton, two_sat_solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_DISAGREE = 4
EXIT_REFUTED = 5
EXIT_BUDGET = 6

# The solvers `--method` names, besides `auto` and the budgeted `minimax`.
_SOLVERS = {
    "fpt": solve_fpt,
    "singleton": solve_singleton,
    "oneplayer2": solve_oneplayer_size2,
    "opponent": solve_opponent_player,
}
METHODS = ("auto", *_SOLVERS, "minimax")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _budget(text: str) -> int:
    """A --budget value: ASCII digits, so a count of 0 or more."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a count of 0 or more, got {text!r}")
    return int(text)


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
    return text, hashlib.sha256(data).hexdigest()


def _exit_code(exc: GenReachError) -> int:
    if isinstance(exc, GameParseError):
        return EXIT_PARSE
    if isinstance(exc, BudgetExceededError):
        return EXIT_BUDGET
    return EXIT_INVALID


def _run(args, paths: Sequence, work: Callable[..., tuple[dict, str, int]]) -> tuple[dict, str, int]:
    """Read every file of `paths`, in order, then run `work` on their texts.

    `work` returns the command's payload, summary line and exit code; this
    returns the report, the summary line and the exit code.  `seconds` times
    `work` alone: parsing, solving and building the payload, not reading the
    files or writing the report.  `input_sha256` is the first file's.
    """
    texts, digests = zip(*(_read_text(Path(path)) for path in paths))
    started = time.perf_counter()
    payload, summary, code = work(*texts)
    report = {
        "command": args.command_echo,
        "version": __version__,
        "input_sha256": digests[0],
        "seconds": round(time.perf_counter() - started, 6),
        **payload,
    }
    return report, summary, code


def _emit(args, report, summary: str, code: int) -> int:
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2))
        print(summary, file=sys.stderr)
    else:
        print(summary)
    return code


def _names(game: Game, vertices) -> list[str]:
    return [game.arena.names[v] for v in sorted(vertices)]


def _solve_game(game: Game, method: str, budget: int | None) -> SolveResult:
    if method == "auto":
        method = pick_method(game)
    if method != "minimax":
        return _SOLVERS[method](game)
    winner = minimax_oracle(game, budget=budget)
    # The oracle decides the init vertex alone, so its regions hold init alone.
    init = frozenset([game.init])
    eve = init if winner is Owner.EVE else frozenset()
    result = SolveResult("minimax", eve, init - eve)
    result.stats["decides"] = "init"
    return result


def pick_method(game: Game) -> str:
    """The `auto` dispatch rule; never picks a method that would reject."""
    sizes = [len(s) for s in game.objective.color_sets]
    owners = set(game.arena.owner)
    if all(size == 1 for size in sizes):
        return "singleton"
    if Owner.EVE not in owners:
        return "opponent"
    if Owner.ADAM not in owners and all(size <= 2 for size in sizes):
        return "oneplayer2"
    return "fpt"


def cmd_solve(args) -> int:
    path = Path(args.file)
    batch = path.is_dir()
    if args.dot:
        if batch:
            print("error: --dot cannot render a directory", file=sys.stderr)
            return EXIT_USAGE
        game = parse_game(_read_text(path)[0])
        print(export_dot(game, _solve_game(game, args.method, args.budget)))
        return EXIT_OK

    def work(name: str, text: str) -> tuple[dict, str, int]:
        game = parse_game(text)
        result = _solve_game(game, args.method, args.budget)
        winner = None if game.init is None else result.winner(game.init).value
        payload = {
            "method": result.method,
            "n": game.arena.n,
            "k": game.k,
            "eve_region": _names(game, result.eve_region),
            "adam_region": _names(game, result.adam_region),
            "winner_from_init": winner,
            "stats": result.stats,
            "phases": result.phases,
        }
        if result.method == "minimax":
            # Regions other than init are not decided by this method.
            payload["eve_region"] = payload["adam_region"] = None
        if result.witness is not None:
            payload["witness"] = [game.arena.names[v] for v in result.witness]
        if args.emit_strategies:
            payload["strategies"] = {
                label: strategy_to_json(game.arena, strategy)
                for label, strategy in (("eve", result.eve_strategy), ("adam", result.adam_strategy))
                if strategy is not None
            }
        summary = f"{name}: method {result.method}, " + (
            f"winner {winner} from init" if winner else f"eve wins {len(result.eve_region)}/{game.arena.n} vertices"
        )
        return ({"file": name, **payload} if batch else payload), summary, EXIT_OK

    args.json |= args.emit_strategies  # strategies are shown in the JSON report only
    # A single file is a batch of one that re-raises its error for main.
    try:
        paths = sorted(p for p in path.iterdir() if p.is_file()) if batch else [path]
    except OSError as exc:
        raise GameParseError(f"cannot read {path}: {exc.strerror}") from None
    reports = []
    summaries = []
    code = EXIT_OK
    for path in paths:
        try:
            report, summary, _ = _run(args, [path], partial(work, path.name))
        except GenReachError as exc:
            if not batch:
                raise
            # One bad file is reported in place; the rest are still solved.
            file_code = _exit_code(exc)
            code = max(code, file_code)
            reports.append({"file": path.name, "error": str(exc), "exit_code": file_code})
            summaries.append(f"{path.name}: error: {exc}")
            continue
        reports.append(report)
        summaries.append(summary)
    return _emit(args, reports if batch else reports[0], "\n".join(summaries) or "no files", code)


def cmd_qbf(args) -> int:
    def work(text: str) -> tuple[dict, str, int]:
        formula = parse_qdimacs(text)
        payload: dict = {
            "via": args.via,
            "variables": formula.num_vars,
            "clauses": len(formula.clauses),
        }
        # The brute force runs first, so its variable limit refuses a
        # formula before the game is built.
        game_value = None
        brute_value = eval_qbf_bruteforce(formula) if args.via in ("brute", "both") else None
        if args.via in ("game", "both"):
            game = qbf_to_game(formula)
            result = solve_fpt(game)
            game_value = game.init in result.eve_region
            payload["game_value"] = game_value
            payload["game_stats"] = result.stats
        if brute_value is not None:
            payload["brute_value"] = brute_value
        value = game_value if game_value is not None else brute_value
        payload["value"] = value
        if args.via == "both":
            payload["agreement"] = game_value == brute_value
            if not payload["agreement"]:
                return payload, "route disagreement: game route and brute force differ", EXIT_DISAGREE
        return payload, f"{Path(args.file).name}: {'true' if value else 'false'}", EXIT_OK

    return _emit(args, *_run(args, [args.file], work))


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
    except (ValueError, UnsupportedInputError) as exc:
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
    def work(text: str, strategy_text: str) -> tuple[dict, str, int]:
        game = parse_game(text)
        try:
            strategy = load_strategy(game.arena, strategy_text)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise GameParseError(f"bad strategy document: {exc}") from None
        if args.region == "init":
            if game.init is None:
                raise UnsupportedInputError("--region init needs a game with an init vertex")
            claimed = frozenset([game.init])
        else:
            solved = solve_fpt(game)
            claimed = solved.eve_region if strategy.player is Owner.EVE else solved.adam_region
        outcome = verify_strategy(game, strategy, claimed)
        payload = {
            "player": strategy.player.value,
            "region": args.region,
            "claimed": _names(game, claimed),
            "winning": outcome.winning,
            "states_declared": strategy.memory.states,
            "states_used": len(outcome.states_used),
        }
        if outcome.winning:
            return payload, f"winning on all {len(claimed)} claimed vertices", EXIT_OK
        payload["failing_vertex"] = game.arena.names[outcome.failing_vertex]
        payload["counterexample"] = [
            game.arena.names[v] for v in outcome.counterexample.vertices
        ]
        return payload, f"refuted from {payload['failing_vertex']}", EXIT_REFUTED

    return _emit(args, *_run(args, [args.game, args.strategy], work))


def cmd_minmem(args) -> int:
    player = Owner.EVE if args.player == "eve" else Owner.ADAM

    def work(text: str) -> tuple[dict, str, int]:
        game = parse_game(text)
        result = min_memory_search(
            game, player, args.bound, machine_class=args.machine_class, budget=args.budget
        )
        payload = {
            "player": args.player,
            "machine_class": result.machine_class,
            "bound": args.bound,
            "found": result.strategy is not None,
            "states": result.states,
            "refuted": result.refuted,
            "expansions": result.expansions,
        }
        if result.strategy is None:
            return payload, f"NONE within {args.bound} states ({result.refuted} machines refuted)", EXIT_OK
        payload["strategy"] = strategy_to_json(game.arena, result.strategy)
        return payload, f"minimum {result.states} states ({result.machine_class} class)", EXIT_OK

    try:
        report, summary, code = _run(args, [args.game], work)
    except ValueError as exc:  # a bound min_memory_search refuses, such as 0
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _emit(args, report, summary, code)


def cmd_twosat(args) -> int:
    def work(text: str) -> tuple[dict, str, int]:
        formula = parse_dimacs_cnf2(text)
        result = two_sat_solve(formula)
        payload = {
            "variables": formula.num_vars,
            "clauses": len(formula.clauses),
            "satisfiable": result.satisfiable,
            "assignment": None if result.assignment is None else list(result.assignment),
            "conflict_var": result.conflict_var,
        }
        summary = "satisfiable" if result.satisfiable else f"unsatisfiable (variable {result.conflict_var})"
        return payload, summary, EXIT_OK

    return _emit(args, *_run(args, [args.file], work))


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
    solve.add_argument("--budget", type=_budget, default=None, help="minimax node budget")
    solve.set_defaults(func=cmd_solve)

    qbf = sub.add_parser("qbf", help="decide a QDIMACS formula")
    qbf.add_argument("file")
    qbf.add_argument("--via", choices=("game", "brute", "both"), default="game")
    qbf.add_argument("--json", action="store_true")
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
    verify.set_defaults(func=cmd_verify)

    minmem = sub.add_parser("minmem", help="search for a minimal winning machine")
    minmem.add_argument("game")
    minmem.add_argument("--player", choices=("eve", "adam"), required=True)
    minmem.add_argument("--bound", type=int, required=True)
    minmem.add_argument("--class", choices=(COLOR_OBS, FULL_CLASS), default=COLOR_OBS,
                        dest="machine_class",
                        help="memory updates observe color sets, or full edges")
    minmem.add_argument("--budget", type=_budget, default=None)
    minmem.add_argument("--json", action="store_true")
    minmem.set_defaults(func=cmd_minmem)

    twosat = sub.add_parser("twosat", help="solve a width-2 DIMACS CNF file")
    twosat.add_argument("file")
    twosat.add_argument("--json", action="store_true")
    twosat.set_defaults(func=cmd_twosat)
    return parser


class _ClosedStdout(io.TextIOBase):
    """For a stdout closed at start-up: a report fails as on a closed pipe."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, "stdout is closed")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.command_echo = list(sys.argv[1:] if argv is None else argv)
    if sys.stdout is None:  # fd 1 was closed at start-up
        sys.stdout = _ClosedStdout()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a buffered write fails here, not at exit
        return code
    except GenReachError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except OSError as exc:
        # Output that cannot be written: a missing directory, a full disk or
        # a closed pipe.  Input errors are GameParseErrors by now.
        print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # stdout itself failed: keep its buffer from the final flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
