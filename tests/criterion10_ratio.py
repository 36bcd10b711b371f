"""Sample criterion 10's doubled/base time ratio on two checkouts.

    python3 tests/criterion10_ratio.py PARENT CHANGE --samples 200
    python3 tests/criterion10_ratio.py PARENT CHANGE --samples 200 --timing-from CHANGE

PARENT and CHANGE are genreach checkouts.  Each sample is one fresh
process that imports a side's `src/`, builds the two games of
`tests/test_acceptance.py::test_criterion_10_fpt_solver_scales_linearly_in_game_size`
and times them with that checkout's own `timed_solve` (or, with
--timing-from, with the `timed_solve` of the checkout named there, on both
sides).  Samples alternate between the sides, parent first.  The script
prints each side's median, quartiles, maximum and the count of samples
over the test's 2.5 bound, with the median seconds of the base and of
the doubled game beside them, then the same as one JSON line.  pytest
does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BOUND = 2.5

# One sample: the two times whose ratio the test asserts on.  A `timed_solve` of one game
# (best of two, each game in turn) and one of several games (interleaved)
# are both accepted, so older checkouts can be sampled too.
SAMPLE = """
import importlib.util, inspect, sys
spec = importlib.util.spec_from_file_location("test_acceptance", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
from helpers import random_game
base = random_game(11, n=2000, k=10, density=4 / 2000, color_size=(20, 100))
doubled = random_game(11, n=4000, k=10, density=4 / 4000, color_size=(40, 200))
timed = module.timed_solve
first = next(iter(inspect.signature(timed).parameters.values()))
if first.kind is inspect.Parameter.VAR_POSITIONAL:
    (t_base, _), (t_doubled, _) = timed(base, doubled)
else:
    t_base, _ = timed(base)
    t_doubled, _ = timed(doubled)
print(t_base, t_doubled)
"""


def sample(checkout: Path, timing: Path) -> tuple[float, float]:
    """The base and the doubled game's seconds, from one fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(checkout / "src"), str(timing / "tests")])
    out = subprocess.run(
        [sys.executable, "-c", SAMPLE, str(timing / "tests" / "test_acceptance.py")],
        env=env, cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout
    base, doubled = out.split()[-2:]
    return float(base), float(doubled)


def summary(times: list[tuple[float, float]]) -> dict:
    ratios = [doubled / base for base, doubled in times]
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return {
        "samples": len(ratios),
        "median": round(median, 3),
        "q1": round(q1, 3),
        "q3": round(q3, 3),
        "max": round(max(ratios), 3),
        "over_2_5": sum(r > BOUND for r in ratios),
        "base_median_s": round(statistics.median(base for base, _ in times), 4),
        "doubled_median_s": round(statistics.median(doubled for _, doubled in times), 4),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--samples", type=int, default=100, help="samples per side")
    parser.add_argument("--timing-from", type=Path, default=None, dest="timing")
    args = parser.parse_args()
    if args.samples < 1:
        parser.error("--samples must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    times: dict[str, list[tuple[float, float]]] = {name: [] for name in sides}
    for i in range(args.samples):
        for name, checkout in sides.items():
            timing = args.timing.resolve() if args.timing else checkout
            times[name].append(sample(checkout, timing))
        ratios = (doubled / base for base, doubled in (times[s][-1] for s in sides))
        print(f"{i + 1}/{args.samples}", *(f"{r:.3f}" for r in ratios), flush=True)
    report = {name: summary(t) for name, t in times.items()}
    for name, row in report.items():
        print(name, *(f"{key} {value}" for key, value in row.items()))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
