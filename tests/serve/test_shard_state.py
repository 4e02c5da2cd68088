"""Shard state is O(sites + bins), whatever has been ingested.

A shard keeps a drag analysis and a heap timeline side by side. Both
are per-site and per-bin sums, so folding the same log twenty times
must leave their pickled snapshots (what a worker process pipes to the
accept loop on every read) about the size they were after one fold,
while the counts they hold grow twentyfold.
"""

import pickle

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
    assert timeline.object_count == FOLDS * len(payloads)
