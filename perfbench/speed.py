"""Correction for the host's changing speed.

On a shared 2-vCPU host the same call can take 1.5 to 2 times longer for
seconds to minutes at a time, because of load outside this process: a
k=9, n=500 solve_fpt repeated back to back ran at 0.29 s and at 0.45 s in
alternating phases.  That swamps any bound a benchmark could hold a change
to.  So the host's speed is probed with a fixed calibration loop: for
about 0.1 s before and after every timed section, and, in the items of
workloads that run in the worker itself, for an eighth of that twice a
second inside the section, from a SIGALRM handler that pauses the work.
(A subprocess would go on working beside such a probe.)  The section's
seconds, less the time spent in inner probes, are scaled by REFERENCE_S
over the mean probe time.  The result reads as seconds on a
host whose loop takes REFERENCE_S.

The loop is integer arithmetic and byte stores into a buffer allocated
once at import: it creates no object the garbage collector tracks and
keeps nothing alive.  The worker runs the closing probe only after an
item's output has been checked, dropped and collected, so neither the
heap genreach leaves behind nor a pending collection can move the scale;
only the host can.

On that host, alternating a k=10, n=1000 solve_fpt and a fig4 bound-3
search for 150 s with a probe before and after each, the quartile distance
of sums of five calls, as a share of the median, was 0.09 and 0.14 raw and
0.045 and 0.048 scaled.  The same loop on a 256 KiB buffer gave 0.083 and
0.051: it followed the CPU-bound search but not the memory-bound solve.
The inner probes are there for sections of several seconds, in which the
host's speed changes.  Raw seconds are kept beside the scaled ones in the
run records, and baseline.json gives the spreads of both.
"""

from __future__ import annotations

import signal
import time

# About the loop's median time inside a worker on the host the baseline was
# taken on, so that reference seconds read there about as raw seconds.
REFERENCE_S = 0.16

# 8 MiB, beyond the caches of a core: random stores into it wait on memory
# as genreach's large sets and dicts do, so the loop slows with the host the
# way memory-bound solves do, and not only the way CPU-bound searches do.
_BUFFER = bytearray(1 << 23)
_MASK = len(_BUFFER) - 1
_STEPS = 400_000

# Inner probes: an eighth of the loop, twice a second.
_INNER_STEPS = _STEPS // 8
INTERVAL_S = 0.5

_inner: list[float] = []
_paused = 0.0


def probe(steps: int = _STEPS) -> float:
    """Seconds taken by a fixed run of pseudo-random byte updates."""
    started = time.perf_counter()
    buf = _BUFFER
    x = 1
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & _MASK
        buf[x] = (buf[x] + 1) & 0xFF
    return time.perf_counter() - started


def clock() -> float:
    """time.perf_counter() less the time spent in inner probes."""
    return time.perf_counter() - _paused


def _inner_probe(signum, frame) -> None:
    global _paused
    started = time.perf_counter()
    _inner.append(probe(_INNER_STEPS) * _STEPS / _INNER_STEPS)
    _paused += time.perf_counter() - started


def start_inner() -> None:
    """Probe once a second from now on, until stop_inner()."""
    _inner.clear()
    signal.signal(signal.SIGALRM, _inner_probe)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop_inner() -> list[float]:
    """Stop the inner probes; their times, in full-loop seconds."""
    signal.setitimer(signal.ITIMER_REAL, 0)
    return list(_inner)


def scale(probes: list[float]) -> float:
    """Factor from raw to reference seconds for a section whose probes,
    in full-loop seconds, took `probes`."""
    return REFERENCE_S * len(probes) / sum(probes)
