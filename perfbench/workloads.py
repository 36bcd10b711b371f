"""The benchmark's workloads.

Each workload builds a fixed list of items from the seed.  An item's `run`
is the timed sequence of calls into genreach's public functions, made
through a tracer so that a traced run can record a span per call.
`check` validates the item's output outside the timed section and raises
CheckFailed; `counts` reads the exact work counters from the output.  The
counters are deterministic for a given seed, and the runner fails a run
whose counters differ from an earlier run of the same code on the same
seed.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

from genreach import (
    COLOR_OBS,
    FULL_CLASS,
    GenParams,
    Owner,
    compress_adam,
    dump_strategy,
    gen_fig4,
    gen_fig5,
    gen_flower,
    gen_picker,
    gen_random,
    load_strategy,
    min_memory_search,
    parse_game,
    serialize_game,
    solve_fpt,
    solve_oneplayer_size2,
    solve_opponent_player,
    solve_singleton,
    verify_strategy,
)

CLI_TIMEOUT_S = 120


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Item:
    id: str
    run: Callable[[Any], Any]
    check: Callable[[Any], None]
    counts: Callable[[Any], dict[str, int]]


@dataclass
class Workload:
    # The first item is also the warm-up item of set-up.
    items: list[Item]
    # For a workload whose work runs in subprocesses: reads the peak RSS,
    # in KiB, of the subprocess behind an item's output.
    subprocess_peak_kb: Callable[[Any], int] | None = None
    # Traced runs only: extra spans recorded after each traced pass,
    # outside the pass's wall time.
    replay: Callable[[Any], None] | None = None

    @property
    def in_process(self) -> bool:
        """True if the items' work runs in the worker itself."""
        return self.subprocess_peak_kb is None


def _random_game(rng: random.Random, n: int, k: int, **params):
    """The criterion-10 family: about 4n edges, colour sets growing with n."""
    params.setdefault("density", 4 / n)
    params.setdefault("color_size", (max(1, n // 100), n // 20))
    return gen_random(GenParams("random", k=k, n=n, seed=rng.getrandbits(32), **params))


def _check_regions(game, result) -> None:
    n = game.arena.n
    _require(
        not result.eve_region & result.adam_region
        and result.eve_region | result.adam_region == frozenset(range(n)),
        "regions do not partition the vertex set",
    )


def _check_solver_strategies(game, result) -> None:
    for strategy, region in (
        (result.eve_strategy, result.eve_region),
        (result.adam_strategy, result.adam_region),
    ):
        verdict = verify_strategy(game, strategy, region)
        _require(verdict.winning, f"{strategy.player.value} strategy is refuted")
    _require(
        result.eve_strategy.memory.states <= (1 << game.k) - 1,
        f"eve strategy has {result.eve_strategy.memory.states} states,"
        f" over 2^k - 1 for k={game.k}",
    )


def _solve_counts(result) -> dict[str, int]:
    stats = result.stats
    return {
        "product.configs": stats["configs"],
        "product.product_edges": stats["product_edges"],
        "product.ops": stats["ops"],
        "product.eve_states": stats["eve_states"],
    }


# --- solve-regions ---------------------------------------------------------

# Seeded games for every k in 8..10 at n = 250..1000, plus the criterion-10
# instance itself (seed 11, n=2000, k=10).  That instance sets peak_rss_mb,
# and between seeded games of its size the peak jumps by over 10%, so it
# stays fixed, like the minmem-search instances.
REGIONS = [(k, n) for k in (8, 9, 10) for n in (250, 500, 1000)]
CRITERION_10 = GenParams("random", k=10, n=2000, density=4 / 2000, color_size=(20, 100), seed=11)


def _parse_and_solve(text: str, tr):
    game = tr.call("fileformat.parse", parse_game, text)
    result = tr.call("product.solve_fpt", solve_fpt, game)
    # Only the regions and the winner from init are read.
    return game, result, result.winner(game.init), len(text)


def _check_solved(output) -> None:
    game, result, _, _ = output
    _check_regions(game, result)
    _check_solver_strategies(game, result)


def _solved_counts(output) -> dict[str, int]:
    _, result, _, size = output
    return {**_solve_counts(result), "fileformat.parse_bytes": size}


def build_solve_regions(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"solve-regions/{seed}")
    texts = [(f"k{k}-n{n}", serialize_game(_random_game(rng, n, k))) for k, n in REGIONS]
    texts.append(("criterion10-k10-n2000", serialize_game(gen_random(CRITERION_10))))
    items = [
        Item(name, partial(_parse_and_solve, text), _check_solved, _solved_counts)
        for name, text in texts
    ]
    return Workload(items)


# --- certify ---------------------------------------------------------------

# (k, n) per seeded item.  Seven k=7, n=350 games form the middle of the
# size range, so that item_p50_s is the median of seven games, not the
# time of one.  The last, largest item is a fixed game: it sets peak_rss_mb, and
# between seeded games of its size that peak moves by 8%.
CERTIFY = ((6, 200), (6, 350), *[(7, 350)] * 7, (7, 500))
CERTIFY_LARGEST = GenParams("random", k=8, n=500, density=4 / 500, color_size=(5, 25), seed=11)


def _certify(game, tr):
    result = tr.call("product.solve_fpt", solve_fpt, game)
    claims = (
        (result.eve_strategy, result.eve_region),
        (result.adam_strategy, result.adam_region),
    )
    texts = [tr.call("strategies.dump", dump_strategy, game.arena, s) for s, _ in claims]
    loaded = [tr.call("strategies.load", load_strategy, game.arena, t) for t in texts]
    verdicts = [
        tr.call("lab.verify", verify_strategy, game, strategy, region)
        for strategy, (_, region) in zip(loaded, claims)
    ]
    compressed = tr.call("product.compress_adam", compress_adam, game)
    verdicts.append(
        tr.call("lab.verify", verify_strategy, game, compressed, result.adam_region)
    )
    return game, result, texts, loaded, compressed, verdicts


def _check_certified(output) -> None:
    game, result, _, loaded, compressed, verdicts = output
    _check_regions(game, result)
    for verdict, label in zip(verdicts, ("loaded eve", "loaded adam", "compressed adam")):
        _require(verdict.winning, f"{label} strategy is refuted")
    k = game.k
    _require(
        loaded[0].memory.states <= (1 << k) - 1,
        f"eve strategy has {loaded[0].memory.states} states, over 2^k - 1 for k={k}",
    )
    _require(
        compressed.memory.states <= math.comb(k, k // 2),
        f"compressed adam strategy has {compressed.memory.states} states,"
        f" over C(k, k/2) for k={k}",
    )


def _certified_counts(output) -> dict[str, int]:
    _, result, texts, _, compressed, verdicts = output
    return {
        **_solve_counts(result),
        "product.antichain_states": compressed.memory.states,
        "strategies.json_bytes": sum(len(t) for t in texts),
        "strategies.json_rows": sum(
            t.count('"next_state"') + t.count('"successor"') for t in texts
        ),
        "lab.verify_states_used": sum(len(v.states_used) for v in verdicts),
    }


def build_certify(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"certify/{seed}")
    games = [(f"k{k}-n{n}.{i}", _random_game(rng, n, k)) for i, (k, n) in enumerate(CERTIFY)]
    games.append(("fixed-k8-n500", gen_random(CERTIFY_LARGEST)))
    items = [
        Item(name, partial(_certify, game), _check_certified, _certified_counts)
        for name, game in games
    ]
    return Workload(items)


# --- minmem-search ---------------------------------------------------------

E, A = Owner.EVE, Owner.ADAM

# (id, game, player, bound, machine class, refuted, states found or None).
# The refuted counts are the ones the test suite freezes.  The mid-size
# fig4 search runs nine times, spread through the pass, so that the median
# item is the median of nine timings rather than one.  The first, smallest
# search is also the warm-up item.
_MID = ("fig4k2-eve-b3-full", partial(gen_fig4, 2), E, 3, FULL_CLASS, 595, 3)
SEARCHES = (
    ("picker3-adam-b2-colorobs", partial(gen_picker, 3), A, 2, COLOR_OBS, 208, None),
    _MID,
    _MID,
    ("fig5-adam-b3-colorobs", gen_fig5, A, 3, COLOR_OBS, 286938, None),
    _MID,
    _MID,
    _MID,
    ("flower2-eve-b3-full", partial(gen_flower, 2), E, 3, FULL_CLASS, 5220, 3),
    _MID,
    _MID,
    ("picker3-adam-b3-colorobs", partial(gen_picker, 3), A, 3, COLOR_OBS, 208, 3),
    _MID,
    _MID,
)


def _search(game, player, bound, machine_class, tr):
    result = tr.call(
        "lab.search", min_memory_search, game, player, bound, machine_class=machine_class
    )
    return game, result


def _check_search(refuted: int, states: int | None, output) -> None:
    game, result = output
    _require(result.refuted == refuted, f"refuted {result.refuted}, expected {refuted}")
    _require(result.states == states, f"found {result.states} states, expected {states}")
    if result.strategy is not None:
        verdict = verify_strategy(game, result.strategy, [game.init])
        _require(verdict.winning, "the machine found is refuted")


def _search_counts(output) -> dict[str, int]:
    _, result = output
    return {
        "lab.search_expansions": result.expansions,
        "lab.search_refuted": result.refuted,
    }


def build_minmem_search(seed: int, workdir: Path) -> Workload:
    """Fixed instances: the seed does not change them."""
    items = [
        Item(
            f"{name}.{i}",
            partial(_search, make(), player, bound, machine_class),
            partial(_check_search, refuted, states),
            _search_counts,
        )
        for i, (name, make, player, bound, machine_class, refuted, states) in enumerate(SEARCHES)
    ]
    return Workload(items)


# --- cli-batch -------------------------------------------------------------

CLI_DIRS = 9
CLI_GAMES_PER_DIR = 120
# (n, k) per game: every kind below meets every k in 1..6 at every n in
# 20, 65, ..., 200 once, in every directory.  The seed draws the graphs.
# Sizes drawn at random made a directory's work swing by about 20% from
# seed to seed, as one k=6, n=200 game costs as much as a hundred small ones.
CLI_SIZES = [(20 + 45 * (g // 24), 1 + (g // 4) % 6) for g in range(CLI_GAMES_PER_DIR)]

# Generator settings that make `pick_method` choose each solver in turn.
CLI_KINDS = (
    ("singleton", 0.5, lambda n: (1, 1)),
    ("opponent", 0.0, lambda n: (2, max(2, n // 10))),
    ("oneplayer2", 1.0, lambda n: (2, 2)),
    ("fpt", 0.5, lambda n: (2, max(2, n // 10))),
)

SOLVERS = {
    "singleton": ("subclasses.solve_singleton", solve_singleton),
    "opponent": ("attractor.solve_opponent_player", solve_opponent_player),
    "oneplayer2": ("subclasses.solve_oneplayer_size2", solve_oneplayer_size2),
    "fpt": ("product.solve_fpt", solve_fpt),
}


# Runs the CLI as `python -m genreach.cli` does, then prints the process's
# own peak RSS as the last line of standard error.  Only the process itself
# can tell: the ru_maxrss the kernel reports for a child also holds the
# peak of the parent it was forked from.
_CLI = """
import atexit, runpy, sys
def _peak():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                print("peak_rss_kb", line.split()[1], file=sys.stderr)
atexit.register(_peak)
runpy.run_module("genreach.cli", run_name="__main__", alter_sys=True)
"""


def _genreach(*argv: str) -> list[str]:
    return [sys.executable, "-c", _CLI, *argv]


def _cli_peak_kb(proc) -> int:
    lines = proc.stderr.splitlines()
    if not lines or not lines[-1].startswith("peak_rss_kb "):
        raise CheckFailed("the genreach process did not report its peak RSS")
    return int(lines[-1].split()[1])


def _solve_dir(directory: Path, tr):
    return tr.call(
        "cli.process",
        subprocess.run,
        _genreach("solve", str(directory), "--json"),
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )


def _expected_regions(texts: dict[str, str], cache: dict) -> dict:
    """In-process solve_fpt on each file, computed once per run."""
    if not cache:
        for name, text in texts.items():
            game = parse_game(text)
            result = solve_fpt(game)
            names = game.arena.names
            cache[name] = (
                sorted(names[v] for v in result.eve_region),
                sorted(names[v] for v in result.adam_region),
            )
    return cache


def _check_cli(texts: dict[str, str], cache: dict, proc) -> None:
    _require(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr.strip()}")
    try:
        reports = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"unparseable JSON report: {exc}") from None
    expected = _expected_regions(texts, cache)
    _require(
        sorted(r["file"] for r in reports) == sorted(expected),
        "the report does not cover every file",
    )
    for report in reports:
        eve, adam = expected[report["file"]]
        _require(
            sorted(report["eve_region"]) == eve and sorted(report["adam_region"]) == adam,
            f"{report['file']}: regions differ from in-process solve_fpt",
        )


def _cli_counts(size: int, proc) -> dict[str, int]:
    counts = {"fileformat.parse_bytes": size}
    for report in json.loads(proc.stdout):
        if report["method"] == "fpt":
            stats = report["stats"]
            for key in ("configs", "product_edges", "ops", "eve_states"):
                counts[f"product.{key}"] = counts.get(f"product.{key}", 0) + stats[key]
    return counts


def _replay(dirs: list[dict[str, str]], tr) -> None:
    """Traced only: the CLI's own steps, in-process, on the same files."""
    from genreach.cli import pick_method

    for d, texts in enumerate(dirs):
        with tr.span("replay", item=f"dir{d}"):
            for text in texts.values():
                game = tr.call("fileformat.parse", parse_game, text)
                method = tr.call("cli.pick_method", pick_method, game)
                name, solver = SOLVERS[method]
                tr.call(name, solver, game)
    for _ in range(3):
        tr.call(
            "cli.startup",
            subprocess.run,
            _genreach("--version"),
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
            check=True,
        )


def build_cli_batch(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"cli-batch/{seed}")
    items = []
    dirs = []
    for d in range(CLI_DIRS):
        directory = workdir / f"dir{d}"
        directory.mkdir()
        texts = {}
        for g in range(CLI_GAMES_PER_DIR):
            _, eve_ratio, color_size = CLI_KINDS[g % len(CLI_KINDS)]
            n, k = CLI_SIZES[g]
            game = _random_game(
                rng, n, k, density=3 / n, eve_ratio=eve_ratio, color_size=color_size(n)
            )
            texts[f"g{g:03d}.game"] = text = serialize_game(game)
            (directory / f"g{g:03d}.game").write_text(text)
        dirs.append(texts)
        size = sum(len(t) for t in texts.values())
        items.append(
            Item(
                f"dir{d}",
                partial(_solve_dir, directory),
                partial(_check_cli, texts, {}),
                partial(_cli_counts, size),
            )
        )
    return Workload(items, subprocess_peak_kb=_cli_peak_kb, replay=partial(_replay, dirs))


BUILDERS = {
    "solve-regions": build_solve_regions,
    "certify": build_certify,
    "minmem-search": build_minmem_search,
    "cli-batch": build_cli_batch,
}
