"""Shared live-timeline profiles for the observability tests.

Each benchmark is profiled ONCE per session with a
:class:`~repro.obs.timeline.TimelineSink` teed into a streaming v2 log
writer (the ``repro profile --log x.dlog2`` wiring, plus a live
timeline) and a buffer.  Tests then get three views of the same run: the
buffered records, the on-disk log, and the incrementally-built
timeline, which is what the streaming-equals-post-hoc claims compare.
"""

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.benchmarks.runner import compile_benchmark
from repro.core.profiler import profile_program

TIMELINE_BENCHES = ("db", "euler")


@pytest.fixture(scope="session")
def timeline_profiles(tmp_path_factory):
    from repro.obs.timeline import TimelineSink
    from repro.stream import BufferSink, LogWriterSink, TeeSink
    from repro.stream.codec import V2LogWriter

    root = tmp_path_factory.mktemp("timeline-logs")
    out = {}
    for name in TIMELINE_BENCHES:
        bench = get_benchmark(name)
        program = compile_benchmark(bench, revised=False)
        path = root / f"{name}.dlog2"
        live = TimelineSink()
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
