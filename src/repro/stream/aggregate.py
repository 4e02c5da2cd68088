"""Incremental drag aggregation in O(sites) memory.

:class:`StreamingDragAnalysis` consumes one record at a time and
maintains exactly the aggregates the batch
:class:`repro.core.analyzer.DragAnalysis` derives — per-site
count/bytes/drag/in-use sums, the never-used partition, and the nested
partition — without ever holding the records
themselves. Both are the same :class:`~repro.core.analyzer.DragAggregate`
fold, so the two analyses agree exactly on any stream (the equivalence
is pinned by ``tests/stream/test_aggregate.py`` on real benchmark
profiles).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.analyzer import DragAggregate, SiteStats
from repro.core.sampler import merge_lazy_totals
from repro.core.trailer import ObjectRecord

__all__ = ["SiteStats", "StreamingDragAnalysis"]


class StreamingDragAnalysis(DragAggregate):
    """One-pass, bounded-memory analyzer over a record stream.

    Mirrors the partitions of the batch analyzer: ``by_site`` (plain
    allocation site) and ``by_nested`` (call chain). Feed it with
    :meth:`add` — directly, via an
    :class:`~repro.stream.sinks.AggregatorSink` during a live run, or
    from a log with :meth:`consume`.
    """

    def __init__(self, include_library_sites: bool = True) -> None:
        super().__init__()
        self.include_library_sites = include_library_sites
        self.end_time: Optional[int] = None

    # -- ingestion --------------------------------------------------------

    def add(self, record: ObjectRecord) -> None:
        """Fold one record in; applies the same excluded/library filter
        as the batch analyzer's constructor."""
        if record.excluded:
            return
        if not self.include_library_sites and record.site_is_library:
            return
        self._fold(record)

    def consume(self, records) -> "StreamingDragAnalysis":
        """Fold in an iterable of records (e.g. ``iter_log(path)``);
        returns self for chaining."""
        for record in records:
            self.add(record)
        return self

    def note_end(self, end_time: Optional[int]) -> None:
        """Record a stream's declared end; the latest one wins."""
        if end_time is not None and (self.end_time is None or end_time > self.end_time):
            self.end_time = end_time

    # -- merge ------------------------------------------------------------

    def merge(self, other: "StreamingDragAnalysis") -> "StreamingDragAnalysis":
        """Fold another aggregator (e.g. from a sharded run) into this
        one; per-site sums are associative so the result equals a
        single-stream analysis of the concatenated logs."""
        self._est = merge_lazy_totals(
            self._est,
            (self.object_count, self.total_bytes, self.total_drag),
            other._est,
            (other.object_count, other.total_bytes, other.total_drag),
        )
        self.object_count += other.object_count
        self.total_bytes += other.total_bytes
        self.total_drag += other.total_drag
        self.sampled = self.sampled or other.sampled
        for table_name in ("by_site", "by_nested"):
            mine: Dict[object, SiteStats] = getattr(self, table_name)
            theirs: Dict[object, SiteStats] = getattr(other, table_name)
            for key, stats in theirs.items():
                existing = mine.get(key)
                if existing is None:
                    fresh = SiteStats(key)
                    fresh.merge(stats)
                    mine[key] = fresh
                else:
                    existing.merge(stats)
        self.note_end(other.end_time)
        return self
