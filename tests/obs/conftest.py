"""Shared live-timeline profiles for the observability tests.

Each benchmark is profiled ONCE per session with a sink that folds each
record into a :class:`~repro.obs.timeline.TimelineBuilder` the moment
it is emitted, teed with a streaming v2 log writer (the ``repro profile
--log x.dlog2`` wiring) and a buffer.  Tests then get three views of
the same run: the buffered records, the on-disk log, and the
incrementally-built timeline, which is what the
streaming-equals-post-hoc claims compare.
"""

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.benchmarks.runner import compile_benchmark
from repro.core.profiler import profile_program

TIMELINE_BENCHES = ("db", "euler")


@pytest.fixture(scope="session")
def timeline_profiles(tmp_path_factory):
    from repro.obs.timeline import TimelineBuilder
    from repro.stream import BufferSink, LogWriterSink, ProfileSink, TeeSink
    from repro.stream.codec import V2LogWriter

    class LiveTimeline(ProfileSink):
        def __init__(self):
            self.builder = TimelineBuilder()

        def on_record(self, record):
            self.builder.add(record)

        def on_sample(self, sample):
            self.builder.add_sample(sample)

        def on_end(self, end_time, finalizer_errors=0):
            self.builder.note_end(end_time)

    root = tmp_path_factory.mktemp("timeline-logs")
    out = {}
    for name in TIMELINE_BENCHES:
        bench = get_benchmark(name)
        program = compile_benchmark(bench, revised=False)
        path = root / f"{name}.dlog2"
        live = LiveTimeline()
        buffer = BufferSink()
        sink = TeeSink(LogWriterSink(V2LogWriter(path)), live, buffer)
        profile_program(
            program,
            bench.args_for("primary"),
            interval_bytes=bench.interval_bytes,
            sink=sink,
        )
        out[name] = (buffer, path, live.builder)
    return out
