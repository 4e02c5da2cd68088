"""Host-speed calibration and the summary statistics every metric uses.

This host's speed wanders, by up to 2x within a second: a plain euler
run takes 450 ms, then 1,000 ms, and the calibration loop below flips
between about 4 ms and 7 ms. Each CPU flips on its own. So a run keeps
itself and every process it starts on one CPU (:func:`pin_to_one_cpu`),
and every timed unit of work — a CLI operation, a serve daemon's
start-up, a read, a unit of ingest — runs between two runs of a
calibration loop. Its wall time is scaled to what it would have been on
a host where the loop takes :data:`CAL_REF_S` (:func:`to_reference`).
Ratios of such times cancel the wander better than ratios of raw times
of operations run back to back, because the speed changes between
operations too. The loop is this file's own Python and never changes
with the program under test.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter
from typing import Dict, List, Sequence

#: Wall time of :func:`calibrate` on the reference host (this 2-core VM
#: in a fast period). Normalised times are stated at this speed.
CAL_REF_S = 0.0075

_CAL_ITERATIONS = 25_000

PERCENTILES = (
    "median = statistics.median; q1/q3 = statistics.quantiles(values, n=4) "
    "(exclusive method); pXX = statistics.quantiles(values, n=100)[XX-1] "
    "(exclusive method); a pXX is quoted with n, and has at least 10 "
    "samples beyond it only when n >= 10 / (1 - XX/100)"
)


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next = None


def calibrate() -> float:
    """Seconds one fixed loop of attribute, dict, list and call traffic
    takes right now — the kind of work the mini-JVM's dispatch does."""
    cells = [_Cell(i) for i in range(64)]
    for a, b in zip(cells, cells[1:] + cells[:1]):
        a.next = b
    table: Dict[int, _Cell] = {}
    acc = 0
    cell = cells[0]
    started = perf_counter()
    for i in range(_CAL_ITERATIONS):
        cell = cell.next
        cell.value = acc
        table[i & 255] = cell
        acc = (acc + table.get((i * 7) & 255, cell).value + len(cells)) & 0xFFFF
    return perf_counter() - started


def to_reference(wall: float, before: float, after: float) -> float:
    """``wall`` seconds, timed between calibration runs that took
    ``before`` and ``after`` seconds, in reference seconds."""
    return wall * CAL_REF_S * 2 / (before + after)


def pin_to_one_cpu() -> int:
    """Keep this process, and every process it starts from now on, on
    one CPU; returns that CPU.

    The calibration loop then runs on the CPU that does the work it
    scales, the serve daemon's included, and no time depends on how the
    scheduler spreads the daemon's processes over the CPUs."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def quartiles(values: Sequence[float]):
    """(q1, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values: Sequence[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def summary(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and n of one metric's samples within a run."""
    q1, q3 = quartiles(values)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
