"""Event sinks and the profiler's streaming emission path."""

from repro.core import profile_source
from repro.core.logfile import read_log
from repro.stream import AggregatorSink, BufferSink, LogWriterSink, TeeSink
from repro.stream.codec import V2LogWriter

SOURCE = """
class Main {
    public static void main(String[] args) {
        char[] kept = new char[2000];
        kept[0] = 'x';
        for (int i = 0; i < 30; i = i + 1) { char[] junk = new char[400]; }
    }
}
"""


def profile_with(sink=None):
    return profile_source(SOURCE, "Main", interval_bytes=4096, sink=sink)


def test_buffer_sink_matches_legacy_buffering():
    sink = BufferSink()
    streamed = profile_with(sink=sink)
    buffered = profile_with()
    assert sink.end_time == buffered.end_time
    assert len(sink.records) == len(buffered.records)
    assert len(sink.samples) == len(buffered.samples)
    assert [r.to_dict() for r in sink.records] == [
        r.to_dict() for r in buffered.records
    ]
    # the profiler itself buffered nothing: O(live), not O(allocated)
    assert streamed.records == []
    assert streamed.samples == []
    assert streamed.profiler.record_count == len(sink.records)


def test_log_writer_sink_streams_identical_log(tmp_path):
    """A streamed v2 log holds exactly the records a buffered run logs."""
    path = tmp_path / "run.dlog2"
    sink = LogWriterSink(V2LogWriter(path, metadata={"main": "Main"}))
    streamed = profile_with(sink=sink)
    buffered = profile_with()
    loaded = read_log(path)
    assert loaded.end_time == buffered.end_time == streamed.end_time
    assert loaded.metadata == {"main": "Main"}
    assert [r.to_dict() for r in loaded.records] == [
        r.to_dict() for r in buffered.records
    ]
    assert len(loaded.samples) == len(buffered.samples)


def test_aggregator_sink_builds_analysis_online():
    sink = AggregatorSink()
    profile_with(sink=sink)
    buffered = profile_with()
    from repro.core.analyzer import DragAnalysis

    batch = DragAnalysis(buffered.records)
    assert sink.analysis.total_drag == batch.total_drag
    assert sink.analysis.object_count == batch.object_count
    assert sink.analysis.end_time == buffered.end_time


def test_tee_sink_fans_out(tmp_path):
    buffer = BufferSink()
    agg = AggregatorSink()
    writer = LogWriterSink(V2LogWriter(tmp_path / "tee.dlog2"))
    profile_with(sink=TeeSink(buffer, agg, writer))
    assert len(buffer.records) > 0
    assert agg.analysis.object_count == len(
        [r for r in buffer.records if not r.excluded]
    )
    assert len(read_log(tmp_path / "tee.dlog2").records) == len(buffer.records)
