"""Event sinks: where the profiler's record/sample stream goes.

A :class:`ProfileSink` receives each :class:`ObjectRecord` the moment
the object is reclaimed (or survives to program end) and each deep-GC
:class:`HeapSample` as it is taken. Sinks compose with :class:`TeeSink`,
so one profiled run can simultaneously stream to disk, feed the
incremental aggregator, and refresh live metrics — all in O(sites)
memory instead of buffering the full object log.
"""

from __future__ import annotations

from typing import List, Optional


class ProfileSink:
    """Receiver for the profiler's event stream.

    Subclasses override what they need; the base class is a no-op, so a
    sink interested only in records can ignore samples and vice versa.
    """

    def on_record(self, record) -> None:
        """One object's log record, emitted at reclamation/program end."""

    def on_sample(self, sample) -> None:
        """One deep-GC heap sample."""

    def on_end(self, end_time: int, finalizer_errors: int = 0) -> None:
        """The run finished; ``end_time`` is the final byte clock and
        ``finalizer_errors`` counts exceptions swallowed by finalize()."""

    def close(self) -> None:
        """Release any resources (files). Idempotent."""


class BufferSink(ProfileSink):
    """Buffer everything in memory — the classic batch behaviour."""

    def __init__(self) -> None:
        self.records: List = []
        self.samples: List = []
        self.end_time: Optional[int] = None
        self.finalizer_errors: int = 0

    def on_record(self, record) -> None:
        self.records.append(record)

    def on_sample(self, sample) -> None:
        self.samples.append(sample)

    def on_end(self, end_time: int, finalizer_errors: int = 0) -> None:
        self.end_time = end_time
        self.finalizer_errors = finalizer_errors


class LogWriterSink(ProfileSink):
    """Stream records straight to a log writer — a
    :class:`repro.stream.codec.V2LogWriter` (``write_record``,
    ``write_sample``, ``close(end_time=...)``) or anything shaped like
    one."""

    def __init__(self, writer) -> None:
        self.writer = writer
        self._end_time: Optional[int] = None
        self._finalizer_errors: Optional[int] = None
        self._closed = False

    @property
    def count(self) -> int:
        return self.writer.count

    def on_record(self, record) -> None:
        self.writer.write_record(record)

    def on_sample(self, sample) -> None:
        self.writer.write_sample(sample)

    def on_end(self, end_time: int, finalizer_errors: int = 0) -> None:
        self._end_time = end_time
        self._finalizer_errors = finalizer_errors
        self.close()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.writer.close(
                end_time=self._end_time,
                finalizer_errors=self._finalizer_errors,
            )


class AggregatorSink(ProfileSink):
    """Feed records into a :class:`StreamingDragAnalysis` as they arrive."""

    def __init__(self, analysis=None, include_library_sites: bool = True) -> None:
        if analysis is None:
            from repro.stream.aggregate import StreamingDragAnalysis

            analysis = StreamingDragAnalysis(
                include_library_sites=include_library_sites
            )
        self.analysis = analysis

    def on_record(self, record) -> None:
        self.analysis.add(record)

    def on_end(self, end_time: int, finalizer_errors: int = 0) -> None:
        self.analysis.end_time = end_time


class TeeSink(ProfileSink):
    """Fan one event stream out to several sinks, in order."""

    def __init__(self, *sinks: ProfileSink) -> None:
        self.sinks = list(sinks)

    def on_record(self, record) -> None:
        for sink in self.sinks:
            sink.on_record(record)

    def on_sample(self, sample) -> None:
        for sink in self.sinks:
            sink.on_sample(sample)

    def on_end(self, end_time: int, finalizer_errors: int = 0) -> None:
        for sink in self.sinks:
            sink.on_end(end_time, finalizer_errors=finalizer_errors)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

