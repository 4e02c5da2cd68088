"""The streaming profile pipeline.

Turns phase 1 from batch-at-exit into a bounded-memory stream: the
profiler emits :class:`~repro.core.trailer.ObjectRecord`s and
:class:`~repro.core.trailer.HeapSample`s into a
:class:`~repro.stream.sinks.ProfileSink` as objects are reclaimed, and
everything downstream — the compact v2 log codec, the incremental
:class:`~repro.stream.aggregate.StreamingDragAnalysis`, the live
metrics of ``repro watch`` — consumes that stream record-by-record.

Memory discipline: with a sink attached the profiler holds O(live
objects) trailers plus O(sites) aggregate state, never the O(all
objects ever allocated) record list it buffers when it has no sink.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.stream.sinks": (
        "AggregatorSink", "BufferSink", "LogWriterSink", "ProfileSink",
        "TeeSink",
    ),
    "repro.stream.codec": (
        "V2LogWriter", "V2TailReader", "iter_v2_log", "read_v2_log",
    ),
    "repro.stream.aggregate": ("SiteStats", "StreamingDragAnalysis"),
    "repro.stream.live": ("LiveMetrics", "MetricsSink"),
    "repro.stream.watch": ("follow_server", "watch_log"),
})

__all__ = [
    "ProfileSink",
    "BufferSink",
    "LogWriterSink",
    "AggregatorSink",
    "TeeSink",
    "V2LogWriter",
    "V2TailReader",
    "iter_v2_log",
    "read_v2_log",
    "SiteStats",
    "StreamingDragAnalysis",
    "LiveMetrics",
    "MetricsSink",
    "watch_log",
    "follow_server",
]
