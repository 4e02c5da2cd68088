"""Live metrics and the watch loop (tailing v2 logs, reading v1 logs)."""

import io
import json
from pathlib import Path

import pytest

from repro.errors import ProfileError
from repro.core import profile_source
from repro.stream import BufferSink, LogWriterSink, MetricsSink, TeeSink, watch_log
from repro.stream.codec import V2LogWriter
from repro.core.profiler import HeapSample
from tests.core.test_analyzer import make_record

SOURCE = """
class Main {
    public static void main(String[] args) {
        char[] kept = new char[3000];
        kept[0] = 'x';
        for (int i = 0; i < 40; i = i + 1) { char[] junk = new char[500]; }
    }
}
"""


def make_v2_log(path, n=12, end_time=5000, samples=True):
    writer = V2LogWriter(path, metadata={"main": "Main"})
    for i in range(n):
        writer.write_record(
            make_record(handle=i, site_label=f"S.m:{i % 3}", collected=1000 + i)
        )
    if samples:
        writer.write_sample(HeapSample(2500, 4096, 3))
    writer.close(end_time=end_time)


def test_metrics_sink_snapshots_every_sample(tmp_path):
    json_path = str(tmp_path / "metrics.json")
    sink = MetricsSink(top_k=3, json_path=json_path, keep_history=True)
    result = BufferSink()
    profile_source(SOURCE, "Main", interval_bytes=4096, sink=TeeSink(sink, result))
    assert sink.latest is not None and sink.latest.finished
    assert sink.latest.records_seen == len(
        [r for r in result.records if not r.excluded]
    )
    assert sink.latest.time == result.end_time
    # one snapshot per deep-GC sample plus the final one
    assert len(sink.history) == len(result.samples) + 1
    assert len(sink.latest.top_sites) <= 3
    with open(json_path) as f:
        flushed = json.load(f)
    assert flushed["finished"] is True
    assert flushed["records_seen"] == sink.latest.records_seen
    assert flushed["top_sites"] == sink.latest.top_sites


def test_metrics_snapshots_are_monotone(tmp_path):
    sink = MetricsSink(keep_history=True)
    profile_source(SOURCE, "Main", interval_bytes=4096, sink=sink)
    drags = [m.total_drag for m in sink.history]
    assert drags == sorted(drags)
    records = [m.records_seen for m in sink.history]
    assert records == sorted(records)


def test_watch_once_on_v2_log(tmp_path):
    path = tmp_path / "run.dlog2"
    make_v2_log(path)
    out = io.StringIO()
    analysis = watch_log(path, once=True, top=2, out=out)
    text = out.getvalue()
    assert "repro watch" in text and "(finished)" in text
    assert "records 12" in text
    assert "top 2 sites by drag" in text
    assert analysis.object_count == 12
    assert analysis.end_time == 5000


LOGS = Path(__file__).resolve().parents[1] / "fixtures" / "logs"


def test_watch_once_on_v1_log():
    out = io.StringIO()
    analysis = watch_log(LOGS / "wordcount.draglog", once=True, out=out)
    assert analysis.object_count == 166
    assert analysis.end_time == 35016
    assert "(finished)" in out.getvalue()


def test_watch_once_on_a_cut_v1_log_stops_at_the_cut():
    out = io.StringIO()
    analysis = watch_log(LOGS / "wordcount.truncated.draglog", once=True, out=out)
    assert analysis.object_count == 165
    assert "(finished)" in out.getvalue()


def test_watch_waits_for_an_empty_v2_log_to_get_its_magic(tmp_path, monkeypatch):
    """A v2 writer buffers even its magic, so a small run's log exists
    with 0 bytes until the run ends. watch must keep polling rather than
    take the empty file for a v1 log."""
    full = tmp_path / "full.dlog2"
    result = profile_source(SOURCE, "Main", interval_bytes=4096,
                            sink=LogWriterSink(V2LogWriter(full)))
    race = tmp_path / "race.dlog2"
    race.write_bytes(b"")
    sleeps = []

    def fake_sleep(_):  # the writer's first flush lands on the second sleep
        sleeps.append(_)
        if len(sleeps) == 2:
            race.write_bytes(full.read_bytes())

    import repro.stream.watch as watch_mod

    monkeypatch.setattr(watch_mod._time, "sleep", fake_sleep)
    out = io.StringIO()
    analysis = watch_log(race, poll_interval=0.1, out=out, max_polls=20)
    assert analysis.object_count == result.profiler.record_count
    assert analysis.end_time == result.end_time
    assert "(finished)" in out.getvalue()


def test_watch_metrics_json_flush(tmp_path):
    path = tmp_path / "run.dlog2"
    make_v2_log(path, end_time=5000)
    json_path = str(tmp_path / "m.json")
    out = io.StringIO()
    watch_log(path, once=True, metrics_json=json_path, out=out)
    with open(json_path) as f:
        metrics = json.load(f)
    assert metrics["records_seen"] == 12
    assert metrics["finished"] is True
    assert metrics["time"] == 5000
    assert metrics["reachable_bytes"] == 4096


def test_watch_missing_file_once_raises(tmp_path):
    with pytest.raises(ProfileError):
        watch_log(tmp_path / "ghost.dlog2", once=True)


def test_watch_follows_a_growing_log(tmp_path, monkeypatch):
    """Simulate tail-while-writing: watch sees records appended between
    polls and stops at the END frame."""
    full = tmp_path / "full.dlog2"
    make_v2_log(full, n=8, end_time=4000)
    data = full.read_bytes()
    growing = tmp_path / "growing.dlog2"
    growing.write_bytes(data[: len(data) // 3])

    # the inter-poll sleep doubles as the "writer": it appends the rest
    def fake_sleep(_):
        growing.write_bytes(data)

    import repro.stream.watch as watch_mod

    monkeypatch.setattr(watch_mod._time, "sleep", fake_sleep)
    out = io.StringIO()
    analysis = watch_log(growing, poll_interval=0.01, out=out, max_polls=10)
    assert analysis.object_count == 8
    assert analysis.end_time == 4000
    assert "(finished)" in out.getvalue()


def test_watch_end_to_end_with_streamed_profile(tmp_path):
    """profile --log then watch: the full pipeline."""
    path = tmp_path / "run.dlog2"
    sink = LogWriterSink(V2LogWriter(path, metadata={"main": "Main"}))
    result = profile_source(SOURCE, "Main", interval_bytes=4096, sink=sink)
    out = io.StringIO()
    analysis = watch_log(path, once=True, out=out)
    assert analysis.end_time == result.end_time
    assert analysis.object_count == result.profiler.record_count
    assert "deep-GC samples" in out.getvalue()
