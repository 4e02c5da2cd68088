"""Live metrics: what the profile looks like *right now*.

Every deep-GC sample is a natural synchronization point — the heap is
freshly collected, so "reachable bytes" is meaningful and a batch of
just-reclaimed records has been emitted. :class:`MetricsSink` snapshots
the stream state at each of those points: reachable bytes, drag
accumulated so far, top-K sites by drag, GC/sample counts. Snapshots
are plain dicts away from JSON, which is what the ``--metrics-json``
flush and any dashboard polling it consume.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional

from repro.stream.aggregate import StreamingDragAnalysis
from repro.stream.sinks import ProfileSink


class LiveMetrics:
    """One point-in-time snapshot of a (possibly still running) profile."""

    __slots__ = (
        "time",
        "reachable_bytes",
        "reachable_objects",
        "records_seen",
        "total_drag",
        "total_bytes",
        "sample_count",
        "top_sites",
        "finished",
        "finalizer_errors",
    )

    def __init__(
        self,
        time: int,
        reachable_bytes: int,
        reachable_objects: int,
        records_seen: int,
        total_drag: int,
        total_bytes: int,
        sample_count: int,
        top_sites: List[dict],
        finished: bool = False,
        finalizer_errors: int = 0,
    ) -> None:
        self.time = time
        self.reachable_bytes = reachable_bytes
        self.reachable_objects = reachable_objects
        self.records_seen = records_seen
        self.total_drag = total_drag
        self.total_bytes = total_bytes
        self.sample_count = sample_count
        self.top_sites = top_sites
        self.finished = finished
        self.finalizer_errors = finalizer_errors

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "reachable_bytes": self.reachable_bytes,
            "reachable_objects": self.reachable_objects,
            "records_seen": self.records_seen,
            "total_drag": self.total_drag,
            "total_bytes": self.total_bytes,
            "sample_count": self.sample_count,
            "top_sites": self.top_sites,
            "finished": self.finished,
            "finalizer_errors": self.finalizer_errors,
        }

    def __repr__(self) -> str:
        return (
            f"<metrics t={self.time} reachable={self.reachable_bytes}B "
            f"drag={self.total_drag} records={self.records_seen}>"
        )


def top_site(site: str, drag, objects: int, nbytes: int, never_used: int) -> dict:
    """One ``top_sites`` entry of a snapshot. ``watch`` on a log and
    ``watch --follow`` on a daemon both build theirs here, so their
    ``--metrics-json`` files have the same shape."""
    return {
        "site": site,
        "drag": drag,
        "objects": objects,
        "bytes": nbytes,
        "never_used": never_used,
    }


def snapshot(
    analysis: StreamingDragAnalysis,
    time: int,
    reachable_bytes: int,
    reachable_objects: int,
    sample_count: int,
    top_k: int = 5,
    finished: bool = False,
    finalizer_errors: int = 0,
) -> LiveMetrics:
    """Freeze the aggregator's current state into a snapshot."""
    top = [
        top_site(
            str(stats.key), stats.total_drag, stats.count, stats.total_bytes,
            stats.never_used_count,
        )
        for stats in analysis.sorted_sites(top_k)
    ]
    return LiveMetrics(
        time=time,
        reachable_bytes=reachable_bytes,
        reachable_objects=reachable_objects,
        records_seen=analysis.object_count,
        total_drag=analysis.total_drag,
        total_bytes=analysis.total_bytes,
        sample_count=sample_count,
        top_sites=top,
        finished=finished,
        finalizer_errors=finalizer_errors,
    )


def update_registry(registry, metrics: LiveMetrics) -> None:
    """Mirror one snapshot into a :class:`repro.obs.MetricsRegistry`.

    Both :class:`MetricsSink` and ``repro watch`` feed the same gauges,
    so a live profile and an after-the-fact log replay expose identical
    Prometheus series (``repro_live_*``).
    """
    registry.gauge(
        "repro_live_clock_bytes", "Byte clock at the last snapshot"
    ).set(metrics.time)
    registry.gauge(
        "repro_live_reachable_bytes", "Reachable bytes at the last deep-GC sample"
    ).set(metrics.reachable_bytes)
    registry.gauge(
        "repro_live_reachable_objects", "Reachable objects at the last deep-GC sample"
    ).set(metrics.reachable_objects)
    registry.gauge(
        "repro_live_records_seen", "Object records streamed so far"
    ).set(metrics.records_seen)
    registry.gauge(
        "repro_live_drag_bytes_time", "Total drag (byte·bytes) accumulated so far"
    ).set(metrics.total_drag)
    registry.gauge(
        "repro_live_sample_count", "Deep-GC samples streamed so far"
    ).set(metrics.sample_count)
    registry.gauge(
        "repro_live_finished", "1 once the end-of-stream marker arrived"
    ).set(1 if metrics.finished else 0)


def write_metrics_json(metrics: LiveMetrics, path: str) -> None:
    """Atomically replace ``path`` with the snapshot's JSON, so a
    dashboard polling the file never reads a half-written flush."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(metrics.to_dict(), f, indent=2)
        f.write("\n")
    os.replace(tmp, path)


class MetricsPublisher:
    """Where each live snapshot goes: the ``--metrics-json`` file
    (``json_path``), the ``repro_live_*`` gauges of ``registry``, and
    that registry's Prometheus exposition in the ``--metrics-out`` file
    (``metrics_out``; given alone, it gets a fresh registry). The one
    publish path of :class:`MetricsSink`, ``repro watch`` and ``repro
    watch --follow``."""

    __slots__ = ("json_path", "registry", "metrics_out")

    def __init__(
        self,
        json_path: Optional[str] = None,
        registry=None,
        metrics_out: Optional[str] = None,
    ) -> None:
        if registry is None and metrics_out:
            from repro.obs import MetricsRegistry

            registry = MetricsRegistry()
        self.json_path = json_path
        self.registry = registry
        self.metrics_out = metrics_out

    @property
    def wanted(self) -> bool:
        """Whether a snapshot has anywhere to go."""
        return bool(self.json_path) or self.registry is not None

    def publish(self, metrics: LiveMetrics) -> None:
        if self.json_path:
            write_metrics_json(metrics, self.json_path)
        if self.registry is not None:
            update_registry(self.registry, metrics)
            if self.metrics_out:
                self.registry.write_exposition(self.metrics_out)


class MetricsSink(ProfileSink):
    """Maintain live metrics over the event stream.

    Feeds an internal (or shared) :class:`StreamingDragAnalysis` and
    refreshes :attr:`latest` on every heap sample and at program end.
    ``json_path`` makes each refresh also flush machine-readable JSON;
    ``on_snapshot`` (a callable) is invoked with each new snapshot —
    that's the hook ``repro watch``-style consumers use; ``registry``
    (a :class:`repro.obs.MetricsRegistry`) mirrors each snapshot into
    the ``repro_live_*`` Prometheus gauges.
    """

    def __init__(
        self,
        analysis: Optional[StreamingDragAnalysis] = None,
        top_k: int = 5,
        json_path: Optional[str] = None,
        on_snapshot=None,
        keep_history: bool = False,
        registry=None,
    ) -> None:
        self.analysis = analysis or StreamingDragAnalysis()
        self.top_k = top_k
        self.publisher = MetricsPublisher(json_path, registry)
        self.on_snapshot = on_snapshot
        self.keep_history = keep_history
        self.history: List[LiveMetrics] = []
        self.latest: Optional[LiveMetrics] = None
        self.sample_count = 0
        self.finalizer_errors = 0
        self._clock = 0

    def on_record(self, record) -> None:
        self.analysis.add(record)
        if record.collection_time > self._clock:
            self._clock = record.collection_time

    def on_sample(self, sample) -> None:
        self.sample_count += 1
        if sample.time > self._clock:
            self._clock = sample.time
        self._refresh(
            time=sample.time,
            reachable_bytes=sample.reachable_bytes,
            reachable_objects=sample.object_count,
            finished=False,
        )

    def on_end(self, end_time: int, finalizer_errors: int = 0) -> None:
        self.analysis.end_time = end_time
        self.finalizer_errors = finalizer_errors
        last = self.latest
        self._refresh(
            time=end_time,
            reachable_bytes=last.reachable_bytes if last else 0,
            reachable_objects=last.reachable_objects if last else 0,
            finished=True,
        )

    def _refresh(
        self, time: int, reachable_bytes: int, reachable_objects: int, finished: bool
    ) -> None:
        metrics = snapshot(
            self.analysis,
            time=time,
            reachable_bytes=reachable_bytes,
            reachable_objects=reachable_objects,
            sample_count=self.sample_count,
            top_k=self.top_k,
            finished=finished,
            finalizer_errors=self.finalizer_errors,
        )
        self.latest = metrics
        if self.keep_history:
            self.history.append(metrics)
        self.publisher.publish(metrics)
        if self.on_snapshot is not None:
            self.on_snapshot(metrics)
