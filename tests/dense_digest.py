"""Hash the outputs of both `solve_fpt` routes and every lazy move table.

    python3 tests/dense_digest.py PARENT CHANGE

PARENT and CHANGE are genreach checkouts.  Each side gets one fresh
process that imports that checkout's `src/`, `tests/` and
`perfbench/workloads.py`, and hashes with sha256, per game: both regions,
the stats but `seconds`, both strategy files, both start maps and every
move of both strategies.  The dense hash covers `solve_fpt`, which takes
the dense route, and also the file and moves of `compress_adam`'s
strategy, on fig5, flower2, the certify workload's `CERTIFY_LARGEST`,
the solve-regions games of seeds 1 and 104729, and the 100 small random
games of `tests/test_product.py`.  The sweep hash covers `_solve_sweep`
on fig5, flower2, the three first games of `SWEEP_GAMES` in
`tests/test_strategies.py`, the QBF reduction `qbf-14-40` (built here,
as that file builds it) and the same 100 random games.  The lazy hash
covers the file and `dict(strategy.moves)`, in iteration order, of
strategies whose moves are answered on lookup: `compress_adam`'s on the
dense games, both of `solve_singleton`'s on 100 seeded singleton games,
and the machines `min_memory_search` finds on flower2 and fig4(2) (Eve,
3 states, full class), picker3 (Adam, 3 states) and fig5 (Adam, 4
states), the last two colour-observing.  The script prints the three
hashes per side and exits 1 when any differs.  pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

DIGEST = """
import hashlib, importlib.util, json, random, sys
from pathlib import Path
from genreach import (
    COLOR_OBS, FULL_CLASS, GenParams, Owner, compress_adam, generate, gen_random,
    min_memory_search, solve_fpt, solve_singleton, strategy_to_json,
)
from helpers import random_game
from genreach.product import _solve_sweep
from genreach.qbf import QBFFormula, qbf_to_game
from test_product import small_games
from test_strategies import SWEEP_GAMES

spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)


class Untraced:
    def call(self, name, fn, *args):
        return fn(*args)


named = [generate(GenParams("fig5")), generate(GenParams("flower", k=2))]
games = [*named, gen_random(workloads.CERTIFY_LARGEST)]
for seed in (1, 104729):
    for item in workloads.build_solve_regions(seed, Path(".")).items:
        games.append(item.run(Untraced())[0])
games += small_games()


rng = random.Random(5)
clauses = tuple(
    tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 15), 3)) for _ in range(40)
)
qbf = qbf_to_game(QBFFormula(14, tuple(("ea"[i % 2], i + 1) for i in range(14)), clauses))
sweep_games = [*named, *(SWEEP_GAMES[c]() for c in ("fold", "random-k18-n16", "random-k9-n100"))]
sweep_games += [qbf, *small_games()]


def strategy_record(arena, strategy):
    file = json.dumps(strategy_to_json(arena, strategy), sort_keys=True)
    return file, sorted(strategy.memory.initial.items()), sorted(strategy.moves.items())


def result_record(game, result):
    stats = sorted((key, v) for key, v in result.stats.items() if key != "seconds")
    strategies = (result.eve_strategy, result.adam_strategy)
    records = [strategy_record(game.arena, s) for s in strategies]
    return sorted(result.eve_region), sorted(result.adam_region), stats, records


# (arena, strategy) pairs for the lazy hash, which is printed last.
lazy = []
digest = hashlib.sha256()
for game in games:
    result = solve_fpt(game)
    assert result.stats["route"] == "dense", "a game took the sweep"
    compressed = compress_adam(game)
    record = (*result_record(game, result), strategy_record(game.arena, compressed))
    digest.update(repr(record).encode())
    lazy.append((game.arena, compressed))
print(len(games), digest.hexdigest())
digest = hashlib.sha256()
for game in sweep_games:
    digest.update(repr(result_record(game, _solve_sweep(game))).encode())
print(len(sweep_games), digest.hexdigest())

for seed in range(100):
    game = random_game(
        seed, n=2 + seed % 29, k=seed % 9, density=0.1 + 0.1 * (seed % 4), color_size=(1, 1)
    )
    result = solve_singleton(game)
    lazy += [(game.arena, s) for s in (result.eve_strategy, result.adam_strategy) if s is not None]
fig5, flower2 = named
searches = [
    (flower2, Owner.EVE, 3, FULL_CLASS),
    (generate(GenParams("fig4", k=2)), Owner.EVE, 3, FULL_CLASS),
    (generate(GenParams("picker", k=3)), Owner.ADAM, 3, COLOR_OBS),
    (fig5, Owner.ADAM, 4, COLOR_OBS),
]
for game, player, bound, machine_class in searches:
    found = min_memory_search(game, player, bound, machine_class, budget=200_000_000)
    assert found.strategy is not None, "a search found no machine"
    lazy.append((game.arena, found.strategy))
digest = hashlib.sha256()
for arena, strategy in lazy:
    file = json.dumps(strategy_to_json(arena, strategy), sort_keys=True)
    digest.update(repr((file, dict(strategy.moves))).encode())
print(len(lazy), digest.hexdigest())
"""


def digest(checkout: Path) -> list[tuple[int, str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(checkout / "src"), str(checkout / "tests")])
    proc = subprocess.run(
        [sys.executable, "-c", DIGEST, str(checkout / "perfbench" / "workloads.py")],
        env=env, cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode:
        sys.exit(f"{checkout}: {proc.stderr}")
    lines = [line.split() for line in proc.stdout.splitlines()]
    return [(int(games), sha) for games, sha in lines]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    hashes = {}
    for name in ("parent", "change"):
        (games, dense), (sweep_games, sweep), (strategies, lazy) = hashes[name] = digest(
            getattr(args, name).resolve()
        )
        print(name, games, "games", dense, flush=True)
        print(name, "sweep", sweep_games, "games", sweep, flush=True)
        print(name, "lazy", strategies, "strategies", lazy, flush=True)
    same = hashes["parent"] == hashes["change"]
    print("same" if same else "differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
