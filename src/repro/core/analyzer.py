"""Phase 2: the off-line drag analyzer (§2.2).

Partitions dragged objects by allocation site and, when the caller asks
for that view, by *nested* allocation site (call chain); partitions each
group's records by last-use site on demand
(:meth:`SiteGroup.partition_by_last_use`); sums the drag space-time
product per group; maintains the special partition of *never-used*
objects; and sorts groups by drag — "allocation sites having a large
drag suggest a potential for significant space savings".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.sampler import WeightedTotal, corrected, merge_corrections, reweight
from repro.core.trailer import ObjectRecord, space_time


class SiteStats:
    """Running aggregates for one partition key: a site label, a
    nested-site chain, or (in a last-use split) a (key, last-use site)
    pair.

    Both analyzers fold records into these; :class:`SiteGroup` adds the
    record list for the queries that need raw records.
    """

    __slots__ = (
        "key",
        "count",
        "total_bytes",
        "total_drag",
        "total_in_use",
        "never_used_count",
        "never_used_drag",
        "type_names",
        "_corr",
    )

    def __init__(self, key) -> None:
        self.key = key
        self.count = 0
        self.total_bytes = 0
        self.total_drag = 0  # sum of drag space-time products (bytes²)
        self.total_in_use = 0
        self.never_used_count = 0
        self.never_used_drag = 0
        self.type_names: List[str] = []  # insertion-ordered, deduplicated
        # Weighted records' corrections to count (0), bytes (1) and drag
        # (2): each Horvitz-Thompson estimate is its observed int plus
        # its correction (see repro.core.sampler), exact and
        # order-independent, so batch, streaming and sharded-merge
        # analyses agree bit for bit on sampled data. Empty at full
        # rate, where the estimates are the observed ints.
        self._corr: Dict[int, WeightedTotal] = {}

    def add(self, record: ObjectRecord) -> None:
        self._fold(
            record, record.size, space_time(record), record.last_use_time == 0,
            record.weight,
        )

    def _fold(self, record, size, facts, never_used, weight) -> None:
        """Fold one record whose facts (``facts`` is its
        :func:`space_time` triple) the caller already computed."""
        _, drag, in_use = facts
        if weight != 1.0:
            corr = self._corr
            reweight(corr, 0, 1, weight)
            reweight(corr, 1, size, weight)
            reweight(corr, 2, drag, weight)
        self.count += 1
        self.total_bytes += size
        self.total_drag += drag
        self.total_in_use += in_use
        if never_used:
            self.never_used_count += 1
            self.never_used_drag += drag
        type_name = record.type_name
        if type_name not in self.type_names:
            self.type_names.append(type_name)

    # Weight-corrected estimates of the population quantities. Exact
    # ints (== the observed sums) for full-rate groups.

    @property
    def est_count(self):
        return corrected(self.count, self._corr, 0)

    @property
    def est_bytes(self):
        return corrected(self.total_bytes, self._corr, 1)

    @property
    def est_drag(self):
        """Estimated total drag (bytes²) this group stands for."""
        return corrected(self.total_drag, self._corr, 2)

    @property
    def never_used_fraction(self) -> float:
        """Fraction of the group's drag due to never-used objects."""
        return self.never_used_drag / self.total_drag if self.total_drag > 0 else 0.0

    @property
    def all_never_used(self) -> bool:
        return self.count > 0 and self.never_used_count == self.count

    def merge(self, other: "SiteStats") -> None:
        """Fold another shard's stats for the same key into this one
        (the multi-process merge primitive)."""
        if other.key != self.key:
            raise ValueError(f"cannot merge {other.key!r} into {self.key!r}")
        merge_corrections(self._corr, other._corr)
        self.count += other.count
        self.total_bytes += other.total_bytes
        self.total_drag += other.total_drag
        self.total_in_use += other.total_in_use
        self.never_used_count += other.never_used_count
        self.never_used_drag += other.never_used_drag
        for name in other.type_names:
            if name not in self.type_names:
                self.type_names.append(name)

    def __repr__(self) -> str:
        return f"<stats {self.key} n={self.count} drag={self.total_drag}>"


# The record attributes a SiteGroup's stored space_time triples hold.
_FACT_INDEX = {"drag_time": 0, "drag": 1}


class SiteGroup(SiteStats):
    """A :class:`SiteStats` that also keeps its records, for the batch
    analyzer's record-level queries (last-use partition, lifetime
    breakdowns, pattern classification).

    Beside each record it keeps the record's :func:`space_time` triple
    ``(drag_time, drag, in_use)`` as the fold computed it (``facts``),
    so the queries read it instead of recomputing it."""

    __slots__ = ("records", "facts")

    def __init__(self, key) -> None:
        super().__init__(key)
        self.records: List[ObjectRecord] = []
        self.facts: List[Tuple[int, int, int]] = []

    def _fold(self, record, size, facts, never_used, weight) -> None:
        self.records.append(record)
        self.facts.append(facts)
        SiteStats._fold(self, record, size, facts, never_used, weight)

    def partition_by_last_use(self) -> Dict[Optional[str], "SiteGroup"]:
        """§2.2: 'we also partition dragged objects according to nested
        allocation site and last-use site'."""
        out: Dict[Optional[str], SiteGroup] = {}
        for record, facts in zip(self.records, self.facts):
            key = record.last_use_frame
            group = out.get(key)
            if group is None:
                group = out[key] = SiteGroup((self.key, key))
            group._fold(
                record, record.size, facts, record.last_use_time == 0,
                record.weight,
            )
        return out

    def lifetime_breakdown(self, attr: str = "drag_time", buckets: int = 4) -> "Histogram":
        """§3.4: 'The tool also partitions the dragged objects at that
        anchor allocation site according to their drag time, in-use
        time, and collection time.' ``attr`` is one of ``drag_time``,
        ``in_use_time``, ``collection_time``, ``lag_time``, ``lifetime``
        or ``drag``."""
        index = _FACT_INDEX.get(attr)
        if index is None:
            values = [getattr(r, attr) for r in self.records]
        else:
            values = [facts[index] for facts in self.facts]
        return Histogram(attr, values, buckets)

    def __repr__(self) -> str:
        return f"<group {self.key} n={self.count} drag={self.total_drag}>"


class Histogram:
    """Equal-width bucketing of one lifetime attribute over a group."""

    __slots__ = ("attr", "values", "edges", "counts")

    def __init__(self, attr: str, values: List[int], buckets: int) -> None:
        self.attr = attr
        self.values = sorted(values)
        if not values:
            self.edges: List[int] = []
            self.counts: List[int] = []
            return
        lo, hi = self.values[0], self.values[-1]
        width = max(1, (hi - lo + buckets) // buckets)
        self.edges = [lo + i * width for i in range(buckets + 1)]
        self.counts = [0] * buckets
        for value in self.values:
            index = min((value - lo) // width, buckets - 1)
            self.counts[index] += 1

    @property
    def minimum(self) -> Optional[int]:
        return self.values[0] if self.values else None

    @property
    def maximum(self) -> Optional[int]:
        return self.values[-1] if self.values else None

    @property
    def median(self) -> Optional[int]:
        if not self.values:
            return None
        return self.values[len(self.values) // 2]

    @property
    def mean(self) -> Optional[float]:
        if not self.values:
            return None
        return sum(self.values) / len(self.values)

    def summary(self) -> str:
        if not self.values:
            return f"{self.attr}: (empty)"
        rows = " ".join(
            f"[{self.edges[i]}..{self.edges[i + 1]}):{self.counts[i]}"
            for i in range(len(self.counts))
        )
        return (
            f"{self.attr}: min={self.minimum} median={self.median} "
            f"max={self.maximum}  {rows}"
        )

    def __repr__(self) -> str:
        return f"<histogram {self.attr} n={len(self.values)}>"


class DragAggregate:
    """The partitions and the log totals, folded a record at a time.

    Partitions: ``by_site`` (plain allocation site), always, and
    ``by_nested`` (call chain) when ``nested`` is true; a fold built
    with ``nested=False`` leaves ``by_nested`` None, and its nested
    views raise. The nested view is the finer one, shown only on
    request (§2.2), so a caller that never prints it folds only sites.
    The batch :class:`DragAnalysis` and the streaming
    :class:`repro.stream.aggregate.StreamingDragAnalysis` are both this
    fold; they differ only in their group type and in how records
    arrive, so they agree exactly on any stream. Each record's facts
    are computed once by the caller of :meth:`_fold` and shared by its
    groups (and, in :class:`~repro.obs.timeline.TimelineBuilder`, by
    the heap-timeline bins), and every total is maintained as the
    records arrive, never rescanned.
    """

    group_type = SiteStats

    def __init__(self, nested: bool = True) -> None:
        self.by_site: Dict[object, SiteStats] = {}
        self.by_nested: Optional[Dict[object, SiteStats]] = {} if nested else None
        self.object_count = 0
        self.total_bytes = 0
        # Observed drag: the sum over *logged* records, uncorrected.
        self.total_drag = 0
        # Weighted records' corrections to the object count (0), bytes
        # (1) and drag (2), as in SiteStats.
        self._corr: Dict[int, WeightedTotal] = {}

    def _fold(self, record: ObjectRecord, facts: Tuple[int, int, int]) -> None:
        """Fold one record whose :func:`space_time` triple ``facts``
        the caller already computed."""
        size = record.size
        weight = record.weight
        drag = facts[1]
        never_used = record.last_use_time == 0
        if weight != 1.0:
            corr = self._corr
            reweight(corr, 0, 1, weight)
            reweight(corr, 1, size, weight)
            reweight(corr, 2, drag, weight)
        self.object_count += 1
        self.total_bytes += size
        self.total_drag += drag
        label = record.site_label
        group = self.by_site.get(label)
        if group is None:
            group = self.by_site[label] = self.group_type(label)
        group._fold(record, size, facts, never_used, weight)
        nested = self.by_nested
        if nested is not None:
            key = record.nested_alloc or (label,)
            group = nested.get(key)
            if group is None:
                group = nested[key] = self.group_type(key)
            group._fold(record, size, facts, never_used, weight)

    # Weight-corrected (Horvitz-Thompson) population estimates. On a
    # full-rate profile every record weight is 1.0 and these are the
    # observed ints, so consumers (lint correlation, the optimize
    # verifier, serve payloads) can read the ``est_*`` forms
    # unconditionally.

    @property
    def sampled(self) -> bool:
        """True once any record carries a non-unit weight."""
        return bool(self._corr)

    @property
    def est_object_count(self):
        return corrected(self.object_count, self._corr, 0)

    @property
    def est_total_bytes(self):
        return corrected(self.total_bytes, self._corr, 1)

    @property
    def est_total_drag(self):
        return corrected(self.total_drag, self._corr, 2)

    @property
    def effective_sample_rate(self) -> float:
        """Observed bytes / estimated bytes — 1.0 for full-rate logs."""
        est = self.est_total_bytes
        return self.total_bytes / est if est > 0 else 1.0

    def drag_share(self, group: SiteStats) -> float:
        total = self.est_total_drag
        return group.est_drag / total if total > 0 else 0.0

    # -- sorted views (the tool's primary output) -------------------------
    #
    # Rankings order by *estimated* drag, which equals observed drag
    # (as an int) for full-rate profiles — the pre-weight sort order.

    def sorted_sites(self, limit: Optional[int] = None) -> List[SiteStats]:
        groups = sorted(self.by_site.values(), key=lambda g: (-g.est_drag, str(g.key)))
        return groups[:limit] if limit else groups

    def sorted_nested(self, limit: Optional[int] = None) -> List[SiteStats]:
        if self.by_nested is None:
            raise ValueError("this analysis was folded without the nested partition")
        groups = sorted(self.by_nested.values(), key=lambda g: (-g.est_drag, str(g.key)))
        return groups[:limit] if limit else groups

    def never_used_sites(self, limit: Optional[int] = None) -> List[SiteStats]:
        """Sites whose drag is entirely due to never-used objects —
        'a sure bet for code rewriting' (§2.2)."""
        groups = [
            g for g in self.by_site.values() if g.all_never_used and g.total_drag > 0
        ]
        groups.sort(key=lambda g: (-g.est_drag, str(g.key)))
        return groups[:limit] if limit else groups

    def site(self, label: str) -> Optional[SiteStats]:
        return self.by_site.get(label)


class DragAnalysis(DragAggregate):
    """The analyzer's view of one profile log: the fold over its
    records, with record-keeping :class:`SiteGroup` partitions.

    Coarse partition ``by_site``: §2.2, "sometimes an allocation site is
    used in many contexts and a large drag may be distributed among
    several smaller drag groups" under the fine ``by_nested`` one, which
    is folded only when ``nested`` is true. Nothing changes an analysis
    after construction, so every total is final once ``__init__``
    returns.
    """

    group_type = SiteGroup

    def __init__(
        self,
        records: Iterable[ObjectRecord],
        include_library_sites: bool = True,
        nested: bool = True,
    ) -> None:
        super().__init__(nested)
        all_records = [r for r in records if not r.excluded]
        if not include_library_sites:
            all_records = [r for r in all_records if not r.site_is_library]
        self.records = all_records
        fold = self._fold
        for record in all_records:
            fold(record, space_time(record))
