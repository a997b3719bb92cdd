"""Pure helpers shared by the benchmark runner and its rounds.

Nothing here imports ``repro``: the percentile rule, medians, interval
unions, error classification and host-speed calibration are tested on
their own.
"""

from __future__ import annotations

import gc
import heapq
import math
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Minimum number of samples that must lie strictly beyond a reported
#: percentile.  A p99 therefore needs at least 1,000 samples.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of an already sorted sequence."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th
    percentile."""
    return n - max(1, math.ceil(q / 100.0 * n)) if n else 0


def tail_percentile(n: int, q: float = 99.0) -> Optional[float]:
    """The highest percentile at most ``q`` that keeps at least
    :data:`MIN_BEYOND` samples beyond it, in steps of one point (and of
    a tenth above 99).  None when even the median has too few."""
    candidates = [q] + [p for p in (99.9, 99.0, 98.0, 95.0, 90.0, 80.0,
                                    75.0, 60.0, 50.0) if p < q]
    for p in candidates:
        if n and beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def percentile_summary(samples: Iterable[float]) -> Dict[str, object]:
    """Median and p99 under the ten-beyond rule.

    ``p50``/``p99`` are None where fewer than :data:`MIN_BEYOND` samples
    lie beyond them; ``tail_q``/``tail`` give the highest percentile
    that does qualify, so a small sample still reports a tail with its
    rank stated.
    """
    ordered = sorted(samples)
    n = len(ordered)
    out: Dict[str, object] = {"n": n, "p50": None, "p99": None,
                              "tail_q": None, "tail": None}
    if n and beyond(n, 50.0) >= MIN_BEYOND:
        out["p50"] = nearest_rank(ordered, 50.0)
    if n and beyond(n, 99.0) >= MIN_BEYOND:
        out["p99"] = nearest_rank(ordered, 99.0)
    tail_q = tail_percentile(n, 99.0)
    if tail_q is not None:
        out["tail_q"] = tail_q
        out["tail"] = nearest_rank(ordered, tail_q)
    return out


def union_length(intervals: Iterable[Tuple[float, float]],
                 lo: float, hi: float) -> float:
    """Total length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's self time: its duration minus the part of it that its
    child spans cover (overlapping children count once)."""
    if end <= start:
        return 0.0
    return (end - start) - union_length(children, start, end)


def classify_error(exc: BaseException, typed: Tuple[type, ...]) -> str:
    """Name a client-visible error, or re-raise it.

    ``typed`` are the error classes a client is expected to handle (the
    program's database errors and network unavailability).  Anything
    else is a bug in the program or the benchmark and must fail the
    run, so it propagates unchanged.
    """
    if isinstance(exc, typed):
        return type(exc).__name__
    raise exc


def longest_wait(requests: List[Tuple[float, Optional[float]]],
                 start: float) -> Optional[float]:
    """Time from ``start`` until the first request due at or after it
    commits.  ``requests`` holds ``(due_ms, commit_ms or None)``; None
    when no such request committed."""
    commits = [done for due, done in requests
               if due >= start and done is not None]
    if not commits:
        return None
    return min(commits) - start


#: Host times are scaled to the machine speed at which one calibration
#: chunk takes this long.
CALIBRATION_MS = 2.0
CALIBRATION_EVENTS = 3000


def calibration_chunk(events: int = CALIBRATION_EVENTS) -> float:
    """CPU seconds of a fixed, tiny discrete-event loop: coroutines
    resumed in timer order from a heap, the same kind of work the
    simulator does.  Its time tracks how fast the machine runs this
    process right now (other work on a shared host slows both alike), so
    host times divided by it do not drift with the machine's load."""
    heap = []
    state = {}

    def proc(pid):
        total = 0
        while True:
            delay = yield (pid * 37 + total) % 17 + 1
            total += delay
            state[pid] = total

    for pid in range(64):
        gen = proc(pid)
        heapq.heappush(heap, (next(gen), pid, gen))
    push, pop = heapq.heappush, heapq.heappop
    # A cyclic collection here would scan the whole simulated cluster,
    # so the chunk's time would follow the heap's size, not the machine.
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.process_time()
        for _ in range(events):
            now, pid, gen = pop(heap)
            push(heap, (now + gen.send(now & 7), pid, gen))
        return time.process_time() - started
    finally:
        if enabled:
            gc.enable()


def speed_factor(chunks: Sequence[float]) -> float:
    """Calibrated seconds per CPU second for one round: the nominal
    chunk time over the round's median chunk time."""
    return CALIBRATION_MS / 1000.0 / median(chunks)
