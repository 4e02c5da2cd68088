"""Streaming heap timelines: Figure 2 as a live observability surface.

The paper's core diagnostic artifact is its heap-occupancy-over-time
graphs — reachable vs in-use bytes against the byte-allocation clock,
with the gap between the two curves being drag (§4.1, Figure 2).  This
module maintains those series *incrementally*, one record at a time, in
O(bins + sites) memory, so the same numbers are available from a log
(``repro timeline``) and the sharded serve daemon (``GET /timeline``) —
not just from a post-hoc batch pass over a buffered record list.

A :class:`TimelineBuilder` is the drag aggregate plus its bins: it owns
a :class:`~repro.stream.aggregate.StreamingDragAnalysis`, folds each
record into it and into the bins in one pass, and reads every count,
byte, drag and ``est_*`` total from it. So ``/timeline`` and
``/rankings`` report the same facts from the same place. No timeline
payload reads the nested (call-chain) partition, so a log-only
``repro timeline`` builds its analysis with ``nested=False``; a serve
shard keeps it, since the same analysis answers
``/rankings?table=nested``.

Design constraints (all pinned by ``tests/obs/test_timeline.py``):

* **Bit-identical to batch.**  Every per-bin value is an *exact*
  space-time integral over that bin (bytes × bytes, an int), computed
  with O(1) dict updates per record: an interval [s, e) of ``size``
  bytes adds exact partial areas to its first and last bins and a
  single difference-array entry covering the full bins between them.
  Integer sums are associative, so streaming, batch recompute, and
  K-way sharded merges land on the same bits.

* **Weight-corrected under sampling.**  Each series also carries
  ``est_*`` variants accumulated in :class:`~repro.core.sampler.
  WeightedTotal` (Shewchuk expansions), so Horvitz-Thompson corrected
  timelines are exact, order-independent, and collapse to the observed
  ints at full rate — the PR 8 contract extended to every bin.

* **Associatively mergeable.** ``TimelineBuilder.merge`` is the shard
  primitive: the analysis merge, elementwise integer/expansion sums,
  sample concatenation, max end-time.
  ``prove_merge_equals_batch(..., timelines=True)`` checks payload
  equality across shardings on every benchmark.

The builder applies the analysis's record filter (``excluded`` records
are dropped; library sites are kept), so a timeline's objects are the
rankings' objects.  It keeps no per-record state, so its size grows
with bins and sites only.  The exact (unbinned) heap curves come from
:func:`repro.core.integrals.curve_from_records` alone.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.core.integrals import MB
from repro.core.sampler import WeightedTotal
from repro.core.trailer import ObjectRecord, space_time
from repro.stream.aggregate import StreamingDragAnalysis

__all__ = [
    "DEFAULT_BIN_BYTES",
    "KINDS",
    "BinnedSeries",
    "Log2Histogram",
    "SiteTimeline",
    "TimelineBuilder",
    "format_axis",
    "format_bytes",
    "payload_series",
    "render_histogram_text",
    "render_timeline_text",
    "sparkline",
]

#: One bin per 64 KB of allocation: fine enough to resolve the phase
#: structure of every bundled benchmark, coarse enough that a multi-GB
#: allocation clock stays in the tens of thousands of bins.
DEFAULT_BIN_BYTES = 64 * 1024

#: The three global series of Figure 2 (drag = reachable − in-use).
KINDS = ("reachable", "in_use", "drag")


class BinnedSeries:
    """Exact per-bin space-time integrals of one heap curve.

    Two sparse maps over bin index: ``edge`` holds the partial areas an
    interval contributes to the (at most two) bins it only partially
    covers, and ``full`` is a difference array for the run of bins it
    covers completely — ``+size·W`` at the first full bin, ``−size·W``
    one past the last — so adding a record is O(1) regardless of how
    many bins its lifetime spans.  Rendering prefix-sums ``full`` and
    adds ``edge`` per bin.  ``est_*`` mirrors both maps with
    :class:`WeightedTotal` cells for the weight-corrected estimate.
    """

    __slots__ = ("edge", "full", "est_edge", "est_full", "weighted")

    def __init__(self) -> None:
        self.edge: Dict[int, int] = {}
        self.full: Dict[int, int] = {}
        self.est_edge: Dict[int, WeightedTotal] = {}
        self.est_full: Dict[int, WeightedTotal] = {}
        # Lazily weighted: until the first weight != 1.0 contribution
        # the est tables stay empty (the observed ints ARE the
        # estimate, bit for bit), keeping the per-record hot path free
        # of WeightedTotal churn on unsampled streams.
        self.weighted = False

    def _promote(self) -> None:
        """Materialize the est tables from the (so far all weight-1.0)
        observed ints. A weight-1 area lands in ``WeightedTotal.ints``,
        so this replay is exactly what eager accumulation would hold."""
        self.weighted = True
        est_edge = self.est_edge
        for key, v in self.edge.items():
            total = WeightedTotal()
            total.ints = v
            est_edge[key] = total
        est_full = self.est_full
        for key, v in self.full.items():
            total = WeightedTotal()
            total.ints = v
            est_full[key] = total

    @staticmethod
    def _est_add(table: Dict[int, WeightedTotal], key: int, area: int, weight: float) -> None:
        total = table.get(key)
        if total is None:
            total = table[key] = WeightedTotal()
        total.add(area if weight == 1.0 else weight * area)

    def add(self, start: int, end: int, size: int, weight: float, bin_bytes: int) -> None:
        """Fold the interval ``[start, end)`` of ``size`` bytes in."""
        first = start // bin_bytes
        last = (end - 1) // bin_bytes
        edge = self.edge
        if weight == 1.0 and not self.weighted:
            # Int-only fast path: the overwhelmingly common case.
            if first == last:
                edge[first] = edge.get(first, 0) + size * (end - start)
                return
            edge[first] = edge.get(first, 0) + size * ((first + 1) * bin_bytes - start)
            edge[last] = edge.get(last, 0) + size * (end - last * bin_bytes)
            if last > first + 1:
                body = size * bin_bytes
                full = self.full
                full[first + 1] = full.get(first + 1, 0) + body
                full[last] = full.get(last, 0) - body
            return
        if not self.weighted:
            self._promote()
        if first == last:
            area = size * (end - start)
            edge[first] = edge.get(first, 0) + area
            self._est_add(self.est_edge, first, area, weight)
            return
        head = size * ((first + 1) * bin_bytes - start)
        tail = size * (end - last * bin_bytes)
        edge[first] = edge.get(first, 0) + head
        edge[last] = edge.get(last, 0) + tail
        self._est_add(self.est_edge, first, head, weight)
        self._est_add(self.est_edge, last, tail, weight)
        if last > first + 1:
            body = size * bin_bytes
            full = self.full
            full[first + 1] = full.get(first + 1, 0) + body
            full[last] = full.get(last, 0) - body
            self._est_add(self.est_full, first + 1, body, weight)
            self._est_add(self.est_full, last, -body, weight)

    def values(self, nbins: int) -> List[int]:
        """Exact observed integral per bin (bytes²), length ``nbins``."""
        out = []
        running = 0
        full = self.full
        edge = self.edge
        for b in range(nbins):
            running += full.get(b, 0)
            out.append(running + edge.get(b, 0))
        return out

    def est_values(self, nbins: int) -> List:
        """Weight-corrected integral per bin — the exact ints at full
        rate, correctly rounded floats once weighted records appear.
        Each bin value is one ``fsum`` over exact expansions, so the
        result is independent of accumulation and merge order."""
        if not self.weighted:
            return self.values(nbins)
        out = []
        running = WeightedTotal()
        est_full = self.est_full
        est_edge = self.est_edge
        for b in range(nbins):
            diff = est_full.get(b)
            if diff is not None:
                running.merge(diff)
            e = est_edge.get(b)
            if e is None:
                out.append(running.value)
            else:
                ints = running.ints + e.ints
                partials = running.partials + e.partials
                out.append(ints if not partials else math.fsum(partials + [ints]))
        return out

    def merge(self, other: "BinnedSeries") -> None:
        if other.weighted and not self.weighted:
            self._promote()
        edge = self.edge
        for key, v in other.edge.items():
            edge[key] = edge.get(key, 0) + v
        full = self.full
        for key, v in other.full.items():
            full[key] = full.get(key, 0) + v
        if not self.weighted:
            return
        if other.weighted:
            for table_name in ("est_edge", "est_full"):
                mine: Dict[int, WeightedTotal] = getattr(self, table_name)
                for key, total in getattr(other, table_name).items():
                    existing = mine.get(key)
                    if existing is None:
                        existing = mine[key] = WeightedTotal()
                    existing.merge(total)
        else:
            # The unweighted side's observed ints are its estimates.
            for table_name, source in (("est_edge", other.edge), ("est_full", other.full)):
                mine = getattr(self, table_name)
                for key, v in source.items():
                    existing = mine.get(key)
                    if existing is None:
                        existing = mine[key] = WeightedTotal()
                    existing.ints += v


class Log2Histogram:
    """Power-of-two histogram over byte-clock durations.

    Bucket ``b`` holds durations in ``[2^(b-1), 2^b)`` (bucket 0 is
    exactly zero — e.g. void objects' in-use time), via
    ``duration.bit_length()``.  Carries both the observed int count and
    the weight-corrected estimated count per bucket.
    """

    __slots__ = ("counts", "est_counts", "weighted")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.est_counts: Dict[int, WeightedTotal] = {}
        self.weighted = False

    def _promote(self) -> None:
        """Materialize est buckets from the all-weight-1.0 counts seen
        so far (a weight-1 count is an int, so the replay is exact)."""
        self.weighted = True
        est = self.est_counts
        for bucket, n in self.counts.items():
            total = WeightedTotal()
            total.ints = n
            est[bucket] = total

    def add(self, duration: int, weighted_count) -> None:
        bucket = duration.bit_length()
        counts = self.counts
        if not self.weighted:
            if weighted_count == 1:
                counts[bucket] = counts.get(bucket, 0) + 1
                return
            self._promote()
        counts[bucket] = counts.get(bucket, 0) + 1
        total = self.est_counts.get(bucket)
        if total is None:
            total = self.est_counts[bucket] = WeightedTotal()
        total.add(weighted_count)

    def merge(self, other: "Log2Histogram") -> None:
        if other.weighted and not self.weighted:
            self._promote()
        counts = self.counts
        for bucket, n in other.counts.items():
            counts[bucket] = counts.get(bucket, 0) + n
        if not self.weighted:
            return
        est = self.est_counts
        if other.weighted:
            for bucket, total in other.est_counts.items():
                existing = est.get(bucket)
                if existing is None:
                    existing = est[bucket] = WeightedTotal()
                existing.merge(total)
        else:
            for bucket, n in other.counts.items():
                existing = est.get(bucket)
                if existing is None:
                    existing = est[bucket] = WeightedTotal()
                existing.ints += n

    def payload(self) -> dict:
        buckets = sorted(self.counts)
        counts = [self.counts[b] for b in buckets]
        if not self.weighted:
            return {"buckets": buckets, "counts": counts, "est_counts": list(counts)}
        return {
            "buckets": buckets,
            "counts": counts,
            "est_counts": [self.est_counts[b].value for b in buckets],
        }


class SiteTimeline:
    """The binned parts of one allocation site's temporal profile: its
    drag series plus lifetime and drag-time histograms. The site's
    count, bytes and drag live in the drag analysis's ``by_site``
    group, never here."""

    __slots__ = ("label", "drag_series", "lifetime_hist", "drag_hist")

    def __init__(self, label: str) -> None:
        self.label = label
        self.drag_series = BinnedSeries()
        self.lifetime_hist = Log2Histogram()
        self.drag_hist = Log2Histogram()

    def merge(self, other: "SiteTimeline") -> None:
        if other.label != self.label:
            raise ValueError(f"cannot merge {other.label!r} into {self.label!r}")
        self.drag_series.merge(other.drag_series)
        self.lifetime_hist.merge(other.lifetime_hist)
        self.drag_hist.merge(other.drag_hist)


class TimelineBuilder:
    """Incremental, mergeable heap timeline over the byte clock: a drag
    analysis plus its bins.

    Feed it one :class:`ObjectRecord` at a time (:meth:`add`); each
    record's facts are computed once and folded into :attr:`analysis`
    (the totals and per-site groups every view reads) and into the
    bins kept here: the reachable and in-use series, and per site a
    drag series and two histograms, for *every* site (pruning to top-K
    happens only at :meth:`payload` time — mid-stream pruning would
    make merges order-dependent), plus the deep-GC snapshot markers.
    Nothing is kept per record, so the state is O(bins + sites)
    however many records it has folded. ``nested`` is passed to the
    analysis: whether it folds the nested partition too.
    """

    __slots__ = (
        "bin_bytes",
        "analysis",
        "last_time",
        "sites",
        "samples",
        "_s_reachable",
        "_s_in_use",
    )

    def __init__(self, bin_bytes: int = DEFAULT_BIN_BYTES, nested: bool = True) -> None:
        if bin_bytes < 1:
            raise ValueError(f"bin_bytes must be >= 1, got {bin_bytes}")
        self.bin_bytes = int(bin_bytes)
        self.analysis = StreamingDragAnalysis(nested=nested)
        self.last_time = 0
        # The global drag series and the global lifetime/drag
        # histograms are NOT maintained here: every record belongs to
        # exactly one site, so they are the associative fold of the
        # per-site ones and are derived at payload time instead of
        # being paid for on the per-record hot path.
        self._s_reachable = BinnedSeries()
        self._s_in_use = BinnedSeries()
        self.sites: Dict[str, SiteTimeline] = {}
        self.samples: List[List[int]] = []

    # -- ingestion --------------------------------------------------------

    def add(self, record: ObjectRecord) -> None:
        # Hot path: one call per record. Raw fields are read once and
        # every derived quantity (interval endpoints, lifetime) is
        # computed locally — the ObjectRecord properties recompute on
        # each access, which profiles as the dominant cost when done
        # per kind.
        if record.excluded:
            # The analysis's record filter (it keeps library sites).
            return
        size = record.size
        weight = record.weight
        creation = record.creation_time
        last_use = record.last_use_time
        collection = record.collection_time
        facts = space_time(record)
        self.analysis._fold(record, facts)
        drag_time = facts[0]
        drag_start = creation if last_use == 0 else last_use
        lifetime = collection - creation
        if lifetime < 0:
            lifetime = 0
        if collection > self.last_time:
            self.last_time = collection
        bin_bytes = self.bin_bytes
        fast = weight == 1.0
        weighted_count = 1 if fast else weight
        # Inlined _interval(record, kind) for the three global kinds,
        # with the int-only BinnedSeries fast path unrolled in place
        # (the method call itself is measurable at this call rate; the
        # weighted/promoted path still delegates).  The arithmetic is
        # pinned against BinnedSeries.add by the conservation asserts
        # in tests/obs/test_timeline.py: per-series bin sums must equal
        # independently-computed exact space-time totals.
        if collection > creation:
            s = self._s_reachable
            if fast and not s.weighted:
                first = creation // bin_bytes
                last = (collection - 1) // bin_bytes
                edge = s.edge
                if first == last:
                    edge[first] = edge.get(first, 0) + size * (collection - creation)
                else:
                    edge[first] = edge.get(first, 0) + size * ((first + 1) * bin_bytes - creation)
                    edge[last] = edge.get(last, 0) + size * (collection - last * bin_bytes)
                    if last > first + 1:
                        body = size * bin_bytes
                        full = s.full
                        full[first + 1] = full.get(first + 1, 0) + body
                        full[last] = full.get(last, 0) - body
            else:
                s.add(creation, collection, size, weight, bin_bytes)
        if last_use > creation:
            s = self._s_in_use
            if fast and not s.weighted:
                first = creation // bin_bytes
                last = (last_use - 1) // bin_bytes
                edge = s.edge
                if first == last:
                    edge[first] = edge.get(first, 0) + size * (last_use - creation)
                else:
                    edge[first] = edge.get(first, 0) + size * ((first + 1) * bin_bytes - creation)
                    edge[last] = edge.get(last, 0) + size * (last_use - last * bin_bytes)
                    if last > first + 1:
                        body = size * bin_bytes
                        full = s.full
                        full[first + 1] = full.get(first + 1, 0) + body
                        full[last] = full.get(last, 0) - body
            else:
                s.add(creation, last_use, size, weight, bin_bytes)
        label = record.site_label
        site = self.sites.get(label)
        if site is None:
            site = self.sites[label] = SiteTimeline(label)
        hist = site.lifetime_hist
        if fast and not hist.weighted:
            bucket = lifetime.bit_length()
            counts = hist.counts
            counts[bucket] = counts.get(bucket, 0) + 1
        else:
            hist.add(lifetime, weighted_count)
        hist = site.drag_hist
        if fast and not hist.weighted:
            bucket = drag_time.bit_length()
            counts = hist.counts
            counts[bucket] = counts.get(bucket, 0) + 1
        else:
            hist.add(drag_time, weighted_count)
        if collection > drag_start:
            s = site.drag_series
            if fast and not s.weighted:
                first = drag_start // bin_bytes
                last = (collection - 1) // bin_bytes
                edge = s.edge
                if first == last:
                    edge[first] = edge.get(first, 0) + size * (collection - drag_start)
                else:
                    edge[first] = edge.get(first, 0) + size * ((first + 1) * bin_bytes - drag_start)
                    edge[last] = edge.get(last, 0) + size * (collection - last * bin_bytes)
                    if last > first + 1:
                        body = size * bin_bytes
                        full = s.full
                        full[first + 1] = full.get(first + 1, 0) + body
                        full[last] = full.get(last, 0) - body
            else:
                s.add(drag_start, collection, size, weight, bin_bytes)

    def add_marker(self, time: int, reachable_bytes: int, object_count: int) -> None:
        """Record one deep-GC safepoint marker (a heap sample)."""
        self.samples.append([time, reachable_bytes, object_count])
        if time > self.last_time:
            self.last_time = time

    def add_sample(self, sample) -> None:
        self.add_marker(sample.time, sample.reachable_bytes, sample.object_count)

    def note_end(self, end_time: Optional[int]) -> None:
        self.analysis.note_end(end_time)
        if end_time is not None and end_time > self.last_time:
            self.last_time = end_time

    def consume(self, records) -> "TimelineBuilder":
        for record in records:
            self.add(record)
        return self

    # -- merge (the shard primitive) --------------------------------------

    def merge(self, other: "TimelineBuilder") -> "TimelineBuilder":
        if other.bin_bytes != self.bin_bytes:
            raise ValueError(
                f"cannot merge timelines with bin_bytes {other.bin_bytes} != {self.bin_bytes}"
            )
        self.analysis.merge(other.analysis)
        self._s_reachable.merge(other._s_reachable)
        self._s_in_use.merge(other._s_in_use)
        for label, theirs in other.sites.items():
            mine = self.sites.get(label)
            if mine is None:
                mine = self.sites[label] = SiteTimeline(label)
            mine.merge(theirs)
        self.samples.extend(other.samples)
        if other.last_time > self.last_time:
            self.last_time = other.last_time
        return self

    # -- views ------------------------------------------------------------

    @property
    def span(self) -> int:
        """Byte-clock extent of the timeline (declared end when known)."""
        end_time = self.analysis.end_time
        return end_time if end_time is not None else self.last_time

    def bin_count(self) -> int:
        span = self.span
        if span <= 0:
            return 0
        return (span + self.bin_bytes - 1) // self.bin_bytes

    def _fold_sites(self, attr: str, empty):
        """Global view of a per-site accumulator: the associative fold
        over every site (each record lands in exactly one site, and the
        cells are int sums / Shewchuk expansions, so the fold equals
        what eager global accumulation would have produced)."""
        for site in self.sites.values():
            empty.merge(getattr(site, attr))
        return empty

    def payload(self, top: Optional[int] = 5, include_samples: bool = True) -> dict:
        """JSON-ready timeline: the payload served by ``GET /timeline``
        and compared verbatim in the merge-equals-batch proof.  Every
        field is a deterministic function of the record *set* (plus
        markers when ``include_samples``), never of arrival order.
        Counts, bytes and drag are the analysis's; bins are this
        builder's."""
        analysis = self.analysis
        nbins = self.bin_count()
        by_kind = {
            "reachable": self._s_reachable,
            "in_use": self._s_in_use,
            "drag": self._fold_sites("drag_series", BinnedSeries()),
        }
        series = {}
        for kind in KINDS:
            s = by_kind[kind]
            series[kind] = {
                "values": s.values(nbins),
                "est_values": s.est_values(nbins),
            }
        ranked = analysis.sorted_sites()
        if top is not None:
            ranked = ranked[:top]
        sites = []
        for rank, group in enumerate(ranked, 1):
            site = self.sites[group.key]
            sites.append(
                {
                    "rank": rank,
                    "site": group.key,
                    "objects": group.count,
                    "bytes": group.total_bytes,
                    "drag": group.total_drag,
                    "est_drag": group.est_drag,
                    "drag_share": analysis.drag_share(group),
                    "values": site.drag_series.values(nbins),
                    "est_values": site.drag_series.est_values(nbins),
                    "lifetime_hist": site.lifetime_hist.payload(),
                    "drag_hist": site.drag_hist.payload(),
                }
            )
        out = {
            "bin_bytes": self.bin_bytes,
            "bins": nbins,
            "end_time": analysis.end_time,
            "last_time": self.last_time,
            "objects": analysis.object_count,
            "est_objects": analysis.est_object_count,
            "total_bytes": analysis.total_bytes,
            "est_total_bytes": analysis.est_total_bytes,
            "total_drag": analysis.total_drag,
            "est_total_drag": analysis.est_total_drag,
            "sampled": analysis.sampled,
            "effective_sample_rate": analysis.effective_sample_rate,
            "series": series,
            "site_count": len(self.sites),
            "sites": sites,
            "lifetime_hist": self._fold_sites("lifetime_hist", Log2Histogram()).payload(),
            "drag_hist": self._fold_sites("drag_hist", Log2Histogram()).payload(),
        }
        if include_samples:
            out["samples"] = sorted(self.samples)
        return out


# -- text rendering (shared by `repro timeline`, watch --follow, and the
#    example chart scripts) ------------------------------------------------

SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values, width: int = 60, vmax=None) -> str:
    """Render a numeric series as a unicode sparkline of ``width``
    columns (peak-preserving: each column shows the max of its bin
    range, so narrow spikes survive downsampling)."""
    n = len(values)
    if n == 0:
        return ""
    if width <= 0:
        width = n
    cols = min(width, n)
    peaks = []
    for col in range(cols):
        lo = col * n // cols
        hi = max(lo + 1, (col + 1) * n // cols)
        peaks.append(max(values[lo:hi]))
    top = max(peaks) if vmax is None else vmax
    if top <= 0:
        return SPARK_CHARS[0] * cols
    out = []
    levels = len(SPARK_CHARS)
    for peak in peaks:
        if peak <= 0:
            out.append(SPARK_CHARS[0])
        else:
            out.append(SPARK_CHARS[min(levels - 1, int(peak * levels / top))])
    return "".join(out)


def format_bytes(n) -> str:
    if n >= MB:
        return f"{n / MB:.1f} MB"
    if n >= 1024:
        return f"{n / 1024.0:.1f} KB"
    return f"{int(n)} B"


def format_axis(t_max, v_max) -> str:
    """The shared x/y axis caption (byte clock vs heap bytes) — also
    used by :func:`repro.core.report.heap_profile_chart`."""
    return f"0 .. {t_max / MB:.1f} MB allocated   (y max {v_max / MB:.2f} MB)"


def payload_series(payload: dict, kind: str) -> list:
    """The preferred display series for ``kind``: weight-corrected
    (``est_values``) when the stream was sampled, observed otherwise
    (they are identical at full rate)."""
    entry = payload["series"][kind]
    return entry["est_values"] if payload.get("sampled") else entry["values"]


def _site_series(payload: dict, site: dict) -> list:
    return site["est_values"] if payload.get("sampled") else site["values"]


def render_histogram_text(hist: dict, width: int = 40) -> List[str]:
    """Rows of a :class:`Log2Histogram` payload as text bars."""
    buckets = hist["buckets"]
    if not buckets:
        return ["  (empty)"]
    counts = hist["est_counts"]
    top = max(counts)
    lines = []
    for bucket, count in zip(buckets, counts):
        if bucket == 0:
            label = f"{'0':>10} .. {'0':<10}"
        else:
            label = f"{format_bytes(1 << (bucket - 1)):>10} .. {format_bytes(1 << bucket):<10}"
        bar = "#" * max(1, int(count * width / top)) if top > 0 and count > 0 else ""
        shown = int(count) if count == int(count) else round(count, 1)
        lines.append(f"  {label} |{bar} {shown}")
    return lines


def render_timeline_text(
    payload: dict,
    width: int = 60,
    top: Optional[int] = None,
    histogram: bool = True,
) -> str:
    """Text dashboard for a timeline payload: global sparkline rows on
    a common scale, the shared axis caption, snapshot-marker count,
    top-site drag strips, and the global lifetime histogram."""
    bins = payload["bins"]
    bin_bytes = payload["bin_bytes"]
    span = payload["end_time"] if payload["end_time"] is not None else payload["last_time"]
    lines = [f"=== heap timeline: {bins} bins x {format_bytes(bin_bytes)} ==="]
    if bins == 0:
        lines.append("(empty timeline)")
        return "\n".join(lines)
    rows = [(kind.replace("_", "-"), payload_series(payload, kind)) for kind in KINDS]
    # One common y scale so reachable/in-use/drag heights are comparable
    # (per-bin integrals divided by bin width == average bytes per bin).
    vmax = max(max(series) for _, series in rows)
    for name, series in rows:
        spark = sparkline(series, width=width, vmax=vmax)
        peak = max(series) / bin_bytes
        lines.append(f"{name:<9} {spark}  peak {format_bytes(peak)}")
    lines.append(f"{'':9} {format_axis(span, vmax / bin_bytes)}")
    if payload.get("sampled"):
        rate = payload.get("effective_sample_rate", 1.0)
        lines.append(
            f"[sampled] effective rate {rate:.6f} — series are weight-corrected estimates"
        )
    samples = payload.get("samples")
    if samples is not None:
        lines.append(f"snapshot markers: {len(samples)} deep-GC samples")
    sites = payload.get("sites") or []
    if top is not None:
        sites = sites[:top]
    if sites:
        lines.append("top sites by drag:")
        for site in sites:
            spark = sparkline(_site_series(payload, site), width=width)
            drag_mb2 = site["est_drag"] / (MB * MB)
            share = 100.0 * site["drag_share"]
            lines.append(
                f"  #{site['rank']} {site['site']:<28} {spark}"
                f"  drag {drag_mb2:.4f} MB^2 ({share:.1f}%)"
            )
    if histogram and payload.get("lifetime_hist"):
        lines.append("lifetime histogram (byte-clock):")
        lines.extend(render_histogram_text(payload["lifetime_hist"]))
    return "\n".join(lines)
