"""Run one genreach benchmark workload and print its result.

    python3 perfbench/run.py --workload solve-regions --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a genreach checkout; it needs only the checkout
and the standard library.  Each workload runs in a fresh child process
(perfbench/worker.py) with a pinned environment.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones listed in
BENCHMARK.json; with --trace 1 they are the per-layer ones, taken from
spans the benchmark records around its calls into genreach.  Scratch
files, span dumps and run records go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("solve-regions", "certify", "minmem-search", "cli-batch")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 22
# Set-up is timed in this many fresh processes per untraced run.
SETUP_RUNS = 3
# A run ends within this many seconds or fails.
DEADLINE_S = 170


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    """The pinned environment every child runs in."""
    env = dict(os.environ)
    env.pop("GENREACH_BUDGET", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], deadline: float) -> dict:
    """Run the worker in its own process group; return its JSON report."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv, "--state-dir", str(STATE)],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("the worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"the worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("the worker printed no report")
    return json.loads(lines[-1])


def source_digest() -> str:
    """Hash of genreach's sources and the benchmark's own, which make the
    inputs, so that counts are compared only between runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "genreach").glob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def check_counts(name: str, seed: int, counts: dict) -> str | None:
    """Compare this run's work counts with the first run of the same code
    on the same seed."""
    record = STATE / "counts" / f"{name}-seed{seed}-{source_digest()}.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        if earlier != counts:
            diff = sorted(k for k in earlier.keys() | counts.keys() if earlier.get(k) != counts.get(k))
            return f"work counts differ from an earlier run of this code on seed {seed}: {', '.join(diff)}"
        return None
    record.parent.mkdir(parents=True, exist_ok=True)
    tmp = record.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    tmp.replace(record)
    return None


def end_to_end(setups: list[float], report: dict, attempted: int) -> dict[str, float]:
    untraced = [p for p in report["passes"] if not p["traced"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "item_p50_s": statistics.median(t for p in untraced for t in p["item_s"]),
        "peak_rss_mb": report["peak_rss_mb"],
        "ok_ratio": (attempted - len(report["failures"])) / attempted,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    STATE.mkdir(parents=True, exist_ok=True)
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(run_child([*argv, "--setup-only"], deadline))
    report = run_child([*argv, "--trace", str(trace)], deadline)
    setups.append(report)
    setup_s = [s["setup_s"] for s in setups]

    problems = list(report["failures"])
    if not report["counts_repeat"]:
        problems.append("work counts differ between passes of this run")
    counts = report["passes"][0]["counts"]
    mismatch = check_counts(name, seed, counts)
    if mismatch:
        problems.append(mismatch)

    attempted = len(report["passes"]) * report["items"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = report["layers"] if trace else end_to_end(setup_s, report, attempted)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(report["failures"]),
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "setup_s_runs": setup_s,
        "raw_setup_s_runs": [s["raw_setup_s"] for s in setups],
        "problems": problems,
        "counts": counts,
        "passes": report["passes"],
        "result": result,
    }
    runs = STATE / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    for problem in problems:
        print(f"{name}: {problem}", file=sys.stderr)
    samples = sum(len(p["item_s"]) for p in report["passes"] if not p["traced"])
    print(f"{name}: {len(report['passes'])} passes, {samples} untraced item samples", file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "genreach" / "__init__.py").is_file():
        print(f"error: no genreach sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for metric, entry in result["metrics"].items():
            print(f"{name:14} {metric:36} {entry['value']:>16.6g} {entry['unit']}")
        ok = ok and result["correct"]
        if args.workload == "all":
            print(json.dumps({"workload": name, **result}))
    if args.workload != "all":
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
