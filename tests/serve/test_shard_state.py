"""Shard state is O(sites + bins), whatever has been ingested.

A shard keeps a heap timeline: a drag analysis plus its bins. Both
are per-site and per-bin sums, so folding the same log twenty times
must leave their pickled snapshots (what a worker process pipes to the
accept loop on every read) about the size they were after one fold,
while the counts they hold grow twentyfold.
"""

import pickle
import sys
from pathlib import Path

import repro
from repro.obs.timeline import DEFAULT_BIN_BYTES
from repro.serve.merge import rankings_payload
from repro.serve.shard import SNAPSHOT_PARTS, _ShardState
from repro.stream.codec import FRAME_RECORD, FrameParser
from tests.serve.test_server import write_v2_log

FOLDS = 20


def _fold(state, stream_id, strings, payloads, end_time):
    state.add_strings(stream_id, strings)
    state.add_records(stream_id, payloads)
    assert state.end_stream(stream_id, end_time) == 0


def test_shard_state_does_not_grow_with_records(all_profiles, tmp_path):
    result = all_profiles["euler"]
    log = write_v2_log(tmp_path / "euler.dlog2", result.records, end_time=result.end_time)
    parser = FrameParser()
    payloads = [p for t, p in parser.feed_frames(log.read_bytes()) if t == FRAME_RECORD]
    assert len(payloads) == len(result.records)

    once = _ShardState(timeline_bin_bytes=DEFAULT_BIN_BYTES)
    _fold(once, 1, parser.strings, payloads, parser.end_time)
    many = _ShardState(timeline_bin_bytes=DEFAULT_BIN_BYTES)
    for stream_id in range(1, FOLDS + 1):
        _fold(many, stream_id, parser.strings, payloads, parser.end_time)

    for part in SNAPSHOT_PARTS:
        small = len(pickle.dumps(once.snapshot(part)[0]))
        large = len(pickle.dumps(many.snapshot(part)[0]))
        assert large < 1.10 * small, (part, small, large)

    analysis, seen = many.snapshot("analysis")
    assert seen == FOLDS * len(payloads)
    assert rankings_payload(analysis)["objects"] == FOLDS * rankings_payload(
        once.snapshot("analysis")[0]
    )["objects"]
    timeline, _ = many.snapshot("timeline")
    assert timeline.analysis.object_count == FOLDS * len(payloads)


def _calls_into_repro(fn) -> int:
    """Python calls into ``src/repro`` while ``fn`` runs, counted with
    ``sys.setprofile``: exact and independent of timing."""
    root = str(Path(repro.__file__).parent)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_timeline_adds_at_most_one_call_per_record(all_profiles, tmp_path):
    """Each record folds once whether or not the timeline is on: with
    it on, a shard makes at most one more call per record. Folding the
    analysis and a separate timeline made about two more."""
    result = all_profiles["db"]
    log = write_v2_log(tmp_path / "db.dlog2", result.records, end_time=result.end_time)
    parser = FrameParser()
    payloads = [p for t, p in parser.feed_frames(log.read_bytes()) if t == FRAME_RECORD]
    calls = {}
    for bin_bytes in (None, DEFAULT_BIN_BYTES):
        _fold(_ShardState(timeline_bin_bytes=bin_bytes), 1, parser.strings, payloads,
              parser.end_time)  # warm-up
        state = _ShardState(timeline_bin_bytes=bin_bytes)
        state.add_strings(1, parser.strings)
        calls[bin_bytes] = _calls_into_repro(lambda: state.add_records(1, payloads))
    extra = (calls[DEFAULT_BIN_BYTES] - calls[None]) / len(payloads)
    assert len(payloads) > 5000
    assert extra <= 1.0, calls
