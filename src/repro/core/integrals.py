"""Space-time integrals and heap curves (Figure 2, Tables 2-3).

Following Agesen et al. (and §4.1), we measure the space-time products
of the reachable and in-use object sizes — the areas under the
reachable and in-use curves. Time is bytes allocated, space is bytes,
so integrals are bytes² (reported as MByte², dividing by 10¹²).

All quantities here are computed *exactly* from the object log (each
object contributes ``size × interval``), not from sampled curves, so
results are deterministic and independent of the sampling interval.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.trailer import ObjectRecord

MB = 1024.0 * 1024.0


class HeapCurve:
    """A step function of heap bytes over allocation time."""

    __slots__ = ("times", "values")

    def __init__(self, times: List[int], values: List[int]) -> None:
        self.times = times
        self.values = values

    def value_at(self, t: int) -> int:
        """Heap bytes at time ``t`` (step function, right-continuous)."""
        import bisect

        i = bisect.bisect_right(self.times, t) - 1
        if i < 0:
            return 0
        return self.values[i]

    def sample(self, at_times: Sequence[int]) -> List[int]:
        return [self.value_at(t) for t in at_times]

    def integral(self) -> int:
        """Exact area under the step function up to the last event."""
        total = 0
        for i in range(len(self.times) - 1):
            total += self.values[i] * (self.times[i + 1] - self.times[i])
        return total


def _interval(record: ObjectRecord, kind: str) -> Optional[Tuple[int, int]]:
    if kind == "reachable":
        return (record.creation_time, record.collection_time)
    if kind == "in_use":
        if record.never_used:
            return None
        return (record.creation_time, record.last_use_time)
    if kind == "drag":
        start = record.creation_time if record.never_used else record.last_use_time
        return (start, record.collection_time)
    # Röjemo/Runciman lag-drag-void-use decomposition [21]:
    if kind == "lag":
        if record.never_used or record.first_use_time == 0:
            return None
        return (record.creation_time, record.first_use_time)
    if kind == "use":
        if record.never_used or record.first_use_time == 0:
            return None
        return (record.first_use_time, record.last_use_time)
    if kind == "void":
        if not record.never_used:
            return None
        return (record.creation_time, record.collection_time)
    raise ValueError(f"unknown curve kind {kind!r}")


def curve_from_records(records: Iterable[ObjectRecord], kind: str = "reachable") -> HeapCurve:
    """Build the reachable / in-use / drag byte curve from log records:
    ``+size`` at each interval's start and ``-size`` at its end, then
    integer prefix sums over the sorted event times, so the curve is
    exact and independent of record order."""
    events: Dict[int, int] = {}
    for record in records:
        span = _interval(record, kind)
        if span is None:
            continue
        start, end = span
        if end <= start:
            continue
        events[start] = events.get(start, 0) + record.size
        events[end] = events.get(end, 0) - record.size
    times = sorted(events)
    values = []
    level = 0
    for t in times:
        level += events[t]
        values.append(level)
    return HeapCurve(times, values)


def integral_bytes2(records: Iterable[ObjectRecord], kind: str = "reachable") -> int:
    """Exact space-time integral in bytes²."""
    total = 0
    for record in records:
        span = _interval(record, kind)
        if span is None:
            continue
        start, end = span
        if end > start:
            total += record.size * (end - start)
    return total


def integral_mb2(records: Iterable[ObjectRecord], kind: str = "reachable") -> float:
    """Space-time integral in MByte² (the unit of Tables 2 and 3)."""
    return integral_bytes2(records, kind) / (MB * MB)


class SavingsRow:
    """One row of Table 2/3: integrals plus the paper's two ratios."""

    __slots__ = (
        "reduced_reachable",
        "reduced_in_use",
        "original_reachable",
        "original_in_use",
        "drag_saving_pct",
        "space_saving_pct",
    )

    def __init__(
        self,
        reduced_reachable: float,
        reduced_in_use: float,
        original_reachable: float,
        original_in_use: float,
    ) -> None:
        self.reduced_reachable = reduced_reachable
        self.reduced_in_use = reduced_in_use
        self.original_reachable = original_reachable
        self.original_in_use = original_in_use
        original_drag = original_reachable - original_in_use
        reduction = original_reachable - reduced_reachable
        # §4.1: drag saving can exceed 100% (mc) when allocations are
        # eliminated outright, making the reduced reachable integral
        # smaller than the original in-use integral.
        self.drag_saving_pct = 100.0 * reduction / original_drag if original_drag > 0 else 0.0
        self.space_saving_pct = (
            100.0 * reduction / original_reachable if original_reachable > 0 else 0.0
        )

    def as_dict(self) -> dict:
        return {
            "reduced_reachable_mb2": self.reduced_reachable,
            "reduced_in_use_mb2": self.reduced_in_use,
            "original_reachable_mb2": self.original_reachable,
            "original_in_use_mb2": self.original_in_use,
            "drag_saving_pct": self.drag_saving_pct,
            "space_saving_pct": self.space_saving_pct,
        }


def savings(
    original_records: Iterable[ObjectRecord],
    revised_records: Iterable[ObjectRecord],
) -> SavingsRow:
    """Compute a Table-2 row from the original and revised profiles."""
    original_records = list(original_records)
    revised_records = list(revised_records)
    return SavingsRow(
        reduced_reachable=integral_mb2(revised_records, "reachable"),
        reduced_in_use=integral_mb2(revised_records, "in_use"),
        original_reachable=integral_mb2(original_records, "reachable"),
        original_in_use=integral_mb2(original_records, "in_use"),
    )
