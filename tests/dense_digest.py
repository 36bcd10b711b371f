"""Hash the dense route's outputs on two checkouts.

    python3 tests/dense_digest.py PARENT CHANGE

PARENT and CHANGE are genreach checkouts.  Each side gets one fresh
process that imports that checkout's `src/`, `tests/` and
`perfbench/workloads.py`, and hashes with sha256, per game: both regions,
the stats but `seconds`, both strategy files, both start maps, every move
of both strategies, and the file and moves of `compress_adam`'s strategy.
The games are fig5, flower2, the certify workload's `CERTIFY_LARGEST`,
the solve-regions games of seeds 1 and 104729, and the 100 small random
games of `tests/test_product.py`.  Every one of them takes the dense
route.  The script prints one hash per side and exits 1 when they differ.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

DIGEST = """
import hashlib, importlib.util, json, sys
from pathlib import Path
from genreach import GenParams, compress_adam, generate, gen_random, solve_fpt, strategy_to_json
from test_product import small_games

spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)


class Untraced:
    def call(self, name, fn, *args):
        return fn(*args)


games = [generate(GenParams("fig5")), generate(GenParams("flower", k=2))]
games.append(gen_random(workloads.CERTIFY_LARGEST))
for seed in (1, 104729):
    for item in workloads.build_solve_regions(seed, Path(".")).items:
        games.append(item.run(Untraced())[0])
games += small_games()


def strategy_record(arena, strategy):
    file = json.dumps(strategy_to_json(arena, strategy), sort_keys=True)
    return file, sorted(strategy.memory.initial.items()), sorted(strategy.moves.items())


digest = hashlib.sha256()
for game in games:
    result = solve_fpt(game)
    assert result.stats["route"] == "dense", "a game took the sweep"
    stats = sorted((key, v) for key, v in result.stats.items() if key != "seconds")
    record = (
        sorted(result.eve_region),
        sorted(result.adam_region),
        stats,
        [strategy_record(game.arena, s) for s in (result.eve_strategy, result.adam_strategy)],
        strategy_record(game.arena, compress_adam(game)),
    )
    digest.update(repr(record).encode())
print(len(games), digest.hexdigest())
"""


def digest(checkout: Path) -> tuple[int, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(checkout / "src"), str(checkout / "tests")])
    proc = subprocess.run(
        [sys.executable, "-c", DIGEST, str(checkout / "perfbench" / "workloads.py")],
        env=env, cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode:
        sys.exit(f"{checkout}: {proc.stderr}")
    games, sha = proc.stdout.split()
    return int(games), sha


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    hashes = {}
    for name in ("parent", "change"):
        games, hashes[name] = digest(getattr(args, name).resolve())
        print(name, games, "games", hashes[name], flush=True)
    same = hashes["parent"] == hashes["change"]
    print("same" if same else "differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
