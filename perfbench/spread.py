"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--record baseline|repeat]

Runs perfbench/run.py once per seed and workload, in turn, and prints for
each end-to-end metric its median, quartiles and the distance between the
quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json. A spread should stay under a third of its bound (setup_s
is exempt). For the time metrics it also gives the median and spread of
the raw seconds, before the speed scaling of speed.py. With --record the
medians and spreads are written into perfbench/baseline.json, as the
baseline of the code measured or as a repeat set with each median's change
against that baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_build" / "perfbench" / "runs"
RAW_METRICS = ("setup_s", "wall_s", "item_p50_s")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def raw_values(name: str, seed: int) -> dict[str, float]:
    """The time metrics of a run in raw seconds, before the speed scaling,
    read from the run's record and reduced as run.py reduces the scaled ones."""
    record = json.loads((RUNS / f"{name}-seed{seed}-trace0.json").read_text())
    untraced = [p for p in record["passes"] if not p["traced"]]
    return {
        "setup_s": statistics.median(record["raw_setup_s_runs"]),
        "wall_s": statistics.median(p["raw_wall_s"] for p in untraced),
        "item_p50_s": statistics.median(t for p in untraced for t in p["raw_item_s"]),
    }


def summarise(vals: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": len(vals)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--record", choices=("baseline", "repeat"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name in workloads:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        raw: dict[str, list[float]] = {m: [] for m in RAW_METRICS}
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{name} seed {seed}: failed\n{proc.stderr}", file=sys.stderr)
                return 1
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
            for metric, value in raw_values(name, seed).items():
                raw[metric].append(value)
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v[-1]:.4g}" for m, v in values.items()), flush=True)
        summary[name] = {}
        for metric, vals in values.items():
            entry = summary[name][metric] = summarise(vals)
            flag = "" if metric == "setup_s" or entry["spread"] < bounds[metric] / 3 else "  WIDE"
            line = (f"  {name:14} {metric:12} median {entry['median']:10.4f}"
                    f"  q1 {entry['q1']:10.4f}  q3 {entry['q3']:10.4f}"
                    f"  spread {entry['spread']:6.3f}  bound {bounds[metric]}{flag}")
            if metric in raw:
                entry["raw"] = summarise(raw[metric])
                line += f"  (raw median {entry['raw']['median']:.4f} spread {entry['raw']['spread']:.3f})"
            print(line, flush=True)
    if args.record:
        path = HERE / "baseline.json"
        doc = json.loads(path.read_text())
        if args.record == "repeat":
            for name, metrics in summary.items():
                for metric, entry in metrics.items():
                    first = doc["baseline"]["workloads"][name][metric]["median"]
                    entry["median_change"] = entry["median"] / first - 1
        section = doc.setdefault(args.record, {"workloads": {}})
        section.update(
            git_revision=git_revision(),
            python=platform.python_version(),
            cpu_count=os.cpu_count(),
            seeds=seeds,
            run_seconds=seconds,
        )
        section["workloads"].update(summary)
        path.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
