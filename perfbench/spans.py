"""Spans around the benchmark's own calls into genreach.

A span is one call into a public genreach function, recorded from the
benchmark side: nothing inside the package is instrumented.  Spans stay
in memory while a run measures and are written out once at the end.
"""

from __future__ import annotations

from contextlib import contextmanager

import speed


class NullTracer:
    """The untraced run: calls go straight through."""

    enabled = False

    @contextmanager
    def span(self, name: str, item: str | None = None):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records (name, start, end, parent span index, item id, scale) per
    span.  Times are speed.clock() readings, which leave out the inner
    speed probes.  The scale, which converts the span's raw seconds to the
    reference seconds of speed.py, is set when the timed section that
    holds the span ends."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._item: str | None = None

    @contextmanager
    def span(self, name: str, item: str | None = None):
        if item is not None:
            self._item = item
        parent = self._open[-1] if self._open else None
        record = [name, speed.clock(), None, parent, self._item, 1.0]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = speed.clock()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    The benchmark is single-threaded, so children of one parent never
    overlap and their durations add up to the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, *_) in enumerate(spans)]


def self_time_by_name(spans: list[list]) -> dict[str, float]:
    """Total self time per span name, in reference seconds."""
    totals: dict[str, float] = {}
    for (name, *_, scale), seconds in zip(spans, self_times(spans)):
        totals[name] = totals.get(name, 0.0) + seconds * scale
    return totals
