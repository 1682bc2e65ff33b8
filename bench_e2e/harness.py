"""Measurement helpers shared by the end-to-end benchmark's workloads.

Everything here is independent of the ``repro`` package: percentiles, the
host-speed calibration loop, peak memory, and the fixed-work op timer.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Iterations of the host-speed calibration loop (15-25 ms of pure
#: Python on a 2-CPU cloud VM, depending on the host's load).
CALIBRATION_LOOPS = 200_000

#: A tail percentile is reported only when at least this many samples
#: lie beyond it.
TAIL_SAMPLES = 10


def calibrate_ms(repeats: int = 11) -> float:
    """Median wall time of a fixed pure-Python loop, in ms.

    It does the same work on every call, so a change in its time is a
    change in the host's speed, not in the program under test.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 1]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(values: List[float]) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest percentile with at least
    :data:`TAIL_SAMPLES` samples beyond it, or ``None`` when the sample
    is too small for any percentile above the median to qualify."""
    q = 1.0 - TAIL_SAMPLES / len(values)
    if q <= 0.5:
        return None
    return q, percentile(values, q)


def summarize(name: str, values_ms: List[float]) -> Dict[str, object]:
    """p50, sample count and tail of one op type's latencies (ms)."""
    summary: Dict[str, object] = {
        "op": name,
        "n": len(values_ms),
        "p50_ms": statistics.median(values_ms),
        "max_ms": max(values_ms),
    }
    tail = tail_percentile(values_ms)
    if tail is not None:
        summary["tail_q"] = round(tail[0], 4)
        summary["tail_ms"] = tail[1]
    return summary


def describe(summary: Dict[str, object]) -> str:
    tail = (
        f"p{100 * summary['tail_q']:.1f}={summary['tail_ms']:.2f} ms"
        if "tail_q" in summary
        else f"no tail percentile (n<{2 * TAIL_SAMPLES + 1})"
    )
    return (
        f"{summary['op']}: p50={summary['p50_ms']:.2f} ms over "
        f"n={summary['n']}, {tail}, max={summary['max_ms']:.2f} ms"
    )


def timed_ops(ops: List[Tuple[str, Callable[[], object]]], ledger=None, on_result=None):
    """Run a fixed op sequence; return ``(latencies_ms by type, wall_s)``.

    A full collection runs before every op, outside its timed region, so
    garbage left by one op is never charged to the next.  ``wall_s``
    covers the whole sequence, collections included, but not the
    ``on_result`` calls: they belong to the correctness check.  A
    ``ledger`` records layer spans from the first op to the last.
    """
    latencies: Dict[str, List[float]] = {}
    if ledger is not None:
        ledger.start()
    started = time.perf_counter()
    checking_s = 0.0
    for kind, op in ops:
        gc.collect()
        t0 = time.perf_counter()
        result = op()
        elapsed = time.perf_counter() - t0
        latencies.setdefault(kind, []).append(elapsed * 1000.0)
        if on_result is not None:
            t1 = time.perf_counter()
            on_result(kind, result, elapsed)
            checking_s += time.perf_counter() - t1
    wall_s = time.perf_counter() - started - checking_s
    if ledger is not None:
        ledger.stop()
    return latencies, wall_s


def repeat_setup(setup: Callable[[], object], repeats: int, discard=None):
    """Run ``setup`` ``repeats`` times; return ``(durations_s, last_result)``.

    Each earlier result is handed to ``discard`` outside the timed region.
    """
    durations = []
    result = None
    for attempt in range(repeats):
        if attempt and discard is not None:
            discard(result)
        gc.collect()
        start = time.perf_counter()
        result = setup()
        durations.append(time.perf_counter() - start)
    return durations, result
