"""One workload in one fresh process: set up, measure, check, report.

Started by run.py with genreach's `src` on PYTHONPATH.  Prints one JSON
object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import speed
from spans import NullTracer, Tracer, self_time_by_name

# Layer timings a traced run reports: metric name -> span name.
SPAN_METRICS = {
    "fileformat.parse_s": "fileformat.parse",
    "product.solve_fpt_s": "product.solve_fpt",
    "product.compress_adam_s": "product.compress_adam",
    "strategies.dump_s": "strategies.dump",
    "strategies.load_s": "strategies.load",
    "lab.verify_s": "lab.verify",
    "lab.search_s": "lab.search",
    "subclasses.solve_singleton_s": "subclasses.solve_singleton",
    "subclasses.solve_oneplayer_size2_s": "subclasses.solve_oneplayer_size2",
    "attractor.solve_opponent_player_s": "attractor.solve_opponent_player",
    "cli.process_s": "cli.process",
}

COUNT_METRICS = (
    "fileformat.parse_bytes",
    "product.configs",
    "product.product_edges",
    "product.ops",
    "product.eve_states",
    "product.antichain_states",
    "strategies.json_bytes",
    "strategies.json_rows",
    "lab.verify_states_used",
    "lab.search_expansions",
    "lab.search_refuted",
)


class Timed:
    """One timed section between two speed probes.  Spans recorded in it
    get its scale."""

    def __init__(self, tr, probe_before: float | None = None, inner: bool = False) -> None:
        """`probe_before` is the closing probe of the section just before,
        if nothing but that probe ran in between.  `inner` adds the inner
        probes, which pause the section's work only if it all runs in
        this process: a subprocess would go on beside them."""
        self._tr = tr
        self._first = len(tr.spans) if tr.enabled else 0
        self._before = speed.probe() if probe_before is None else probe_before
        self._inner_on = inner
        self._inner: list[float] = []
        self._raw: float | None = None
        self.probe_after: float | None = None
        if inner:
            speed.start_inner()
        self._started = speed.clock()

    def stop(self) -> None:
        """End the section's clock."""
        self._raw = speed.clock() - self._started
        if self._inner_on:
            self._inner = speed.stop_inner()

    def finish(self) -> tuple[float, float]:
        """Raw and reference seconds of the section.  Runs the closing
        probe, so call it only once the section's output has been checked,
        dropped and collected."""
        self.probe_after = speed.probe()
        factor = speed.scale([self._before, *self._inner, self.probe_after])
        if self._tr.enabled:
            for record in self._tr.spans[self._first:]:
                record[5] = factor
        return self._raw, self._raw * factor


def check_in_child(item, output) -> str | None:
    """Run `item.check(output)` in a forked child, so that the check's own
    memory never counts in this process's peak RSS.  Returns the failure,
    or None if the check passed."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            # A collection would touch, and so copy, the whole shared heap.
            gc.disable()
            try:
                item.check(output)
                verdict = "ok"
            except Exception as exc:
                verdict = f"failed: {type(exc).__name__}: {exc}"
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(verdict)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        verdict = pipe.read()
    _, status = os.waitpid(pid, 0)
    if verdict == "ok" and status == 0:
        return None
    if verdict.startswith("failed: "):
        return verdict[len("failed: "):]
    return f"the check process ended with status {status} and no verdict"


def check(workload, item, output) -> str | None:
    """The item's check, forked for in-process workloads (see check_in_child)."""
    if workload.in_process:
        return check_in_child(item, output)
    try:
        item.check(output)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


# Never start a pass once this much of the run's time has gone.
HARD_STOP_S = 120


def run_pass(workload, tr, failures: list[str]) -> dict:
    """Every item once; only the calls inside `item.run` are timed, in
    reference seconds (see speed.py), with raw seconds kept beside them."""
    item_s, raw_item_s = [], []
    counts: dict[str, int] = {}
    subprocess_peak_kb = 0
    probe = None
    for item in workload.items:
        output = failure = None
        # Each item's closing probe also opens the next item.
        timed = Timed(tr, probe, inner=workload.in_process)
        try:
            with tr.span("item", item=item.id):
                output = item.run(tr)
        except Exception as exc:  # a failing call counts, and the pass goes on
            failure = f"{type(exc).__name__}: {exc}"
        timed.stop()
        if failure is None:
            failure = check(workload, item, output)
        if failure is None:
            try:
                for key, value in item.counts(output).items():
                    counts[key] = counts.get(key, 0) + value
                if not workload.in_process:
                    peak_kb = workload.subprocess_peak_kb(output)
                    subprocess_peak_kb = max(subprocess_peak_kb, peak_kb)
            except Exception as exc:
                failure = f"{type(exc).__name__}: {exc}"
        if failure is not None:
            failures.append(f"{item.id}: {failure}")
        # Free this item's cyclic garbage before the closing probe and the
        # next item, so that neither its collection time nor its memory
        # lands on another measurement.
        del output
        gc.collect()
        raw, scaled = timed.finish()
        probe = timed.probe_after
        raw_item_s.append(raw)
        item_s.append(scaled)
    if tr.enabled and workload.replay is not None:
        timed = Timed(tr)
        workload.replay(tr)
        timed.stop()
        gc.collect()
        timed.finish()
    return {
        "traced": tr.enabled,
        "wall_s": sum(item_s),
        "item_s": item_s,
        "raw_wall_s": sum(raw_item_s),
        "raw_item_s": raw_item_s,
        "counts": counts,
        "subprocess_peak_kb": subprocess_peak_kb,
    }


def measure(workload, seconds: float, traced: bool) -> dict:
    """Passes over the item list for about `seconds`.

    Another pass starts only if it should end before `seconds` plus half
    a pass, so a run's length does not jump by a whole pass with noise.
    A traced run alternates untraced and traced passes, at least one each.
    """
    tracer = Tracer() if traced else None
    passes: list[dict] = []
    failures: list[str] = []
    begin = time.perf_counter()
    pass_lengths = []
    while True:
        tr = tracer if traced and len(passes) % 2 == 1 else NullTracer()
        started = time.perf_counter()
        passes.append(run_pass(workload, tr, failures))
        pass_lengths.append(time.perf_counter() - started)
        elapsed = time.perf_counter() - begin
        if elapsed > HARD_STOP_S:
            break
        if traced and len(passes) < 2:
            continue
        if elapsed + statistics.median(pass_lengths) / 2 > seconds:
            break
    return {"passes": passes, "failures": failures, "spans": tracer.spans if traced else None}


def layer_metrics(passes: list[dict], spans: list[list]) -> dict[str, float]:
    """Per-pass layer self times and counts from the traced passes."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    per_pass = len(traced)
    self_s = self_time_by_name(spans)
    metrics = {
        metric: self_s.get(span, 0.0) / per_pass for metric, span in SPAN_METRICS.items()
    }
    counts = traced[0]["counts"]
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0)
    solve_s = metrics["product.solve_fpt_s"]
    metrics["product.configs_per_s"] = metrics["product.configs"] / solve_s if solve_s else 0.0
    search_s = metrics["lab.search_s"]
    metrics["lab.expansions_per_s"] = (
        metrics["lab.search_expansions"] / search_s if search_s else 0.0
    )
    startups = [
        (end - start) * scale for name, start, end, _, _, scale in spans if name == "cli.startup"
    ]
    metrics["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    metrics["trace.spans"] = len(spans) / per_pass
    metrics["trace.overhead_s"] = statistics.median(
        p["wall_s"] for p in traced
    ) - statistics.median(p["wall_s"] for p in untraced)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--state-dir", type=Path, required=True)
    args = parser.parse_args()

    timed = Timed(NullTracer())
    import workloads  # imports genreach: part of set-up

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.state_dir))
    try:
        workload = workloads.BUILDERS[args.workload](args.seed, workdir)
        warmup = workload.items[0].run(NullTracer())
        timed.stop()
        del warmup
        gc.collect()
        raw_setup_s, setup_s = timed.finish()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
            return 0
        measured = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = measured["passes"]
    # The peak of the process that does the work: this one, or for a
    # workload of subprocesses, the largest of them, as each reports it.
    # Forked checks count in neither.
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(p["subprocess_peak_kb"] for p in passes)
    report = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "peak_rss_mb": rss_kb / 1024,
        "items": len(workload.items),
        "passes": passes,
        "failures": measured["failures"],
        "counts_repeat": all(p["counts"] == passes[0]["counts"] for p in passes),
    }
    if args.trace:
        spans = measured["spans"]
        report["layers"] = layer_metrics(passes, spans)
        spans_file = args.state_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(
            json.dumps(
                {
                    "fields": ["name", "start", "end", "parent", "item", "scale"],
                    "spans": spans,
                }
            )
        )
        report["spans_file"] = str(spans_file)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
