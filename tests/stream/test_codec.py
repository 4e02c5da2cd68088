"""The compact v2 log codec: round trips, string table, truncation."""

import json
import os
from pathlib import Path

import pytest

from repro.errors import ProfileError
from repro.core.logfile import iter_log, read_log
from repro.core.profiler import HeapSample
from repro.stream.codec import (
    MAGIC,
    V2LogWriter,
    V2TailReader,
    iter_v2_log,
    read_v2_log,
)
from tests.core.test_analyzer import make_record


def write_v2(path, records, samples=(), end_time=None, metadata=None):
    writer = V2LogWriter(path, metadata=metadata)
    for record in records:
        writer.write_record(record)
    for sample in samples:
        writer.write_sample(sample)
    writer.close(end_time=end_time)
    return writer


def test_roundtrip_preserves_records(tmp_path):
    records = [
        make_record(handle=1, last_use=0),
        make_record(
            handle=2, last_use=555, use_frame="A.b:3", nested=("A.b:3", "A.a:1")
        ),
    ]
    path = tmp_path / "run.dlog2"
    write_v2(path, records, end_time=12345, metadata={"bench": "test"})
    loaded = read_v2_log(path)
    assert loaded.end_time == 12345
    assert loaded.metadata == {"bench": "test"}
    for original, parsed in zip(records, loaded.records):
        assert parsed.to_dict() == original.to_dict()


def test_roundtrip_preserves_use_chain_and_samples(tmp_path):
    record = make_record(handle=7, last_use=200, use_frame="A.b:3")
    record.last_use_chain = ("A.b:3", "A.a:1")
    path = tmp_path / "chain.dlog2"
    write_v2(path, [record], samples=[HeapSample(100, 4096, 7)], end_time=999)
    loaded = read_v2_log(path)
    assert loaded.records[0].last_use_chain == ("A.b:3", "A.a:1")
    assert len(loaded.samples) == 1
    assert loaded.samples[0].reachable_bytes == 4096
    assert loaded.samples[0].object_count == 7


def test_record_frame_of_128_bytes_or_more_round_trips(tmp_path):
    """A RECORD payload below 0x80 bytes has a one-byte length; a longer
    one takes the full uvarint length, and both decode the same way."""
    import io

    from repro.stream.codec import FRAME_RECORD, V2FrameEncoder

    short = make_record(handle=1, last_use=5, use_frame="A.b:3")
    long_ = make_record(handle=2, last_use=5, use_frame="A.b:3",
                        nested=tuple(f"C{i}.m:{i}" for i in range(200)))
    for record, length_bytes in ((short, 1), (long_, 2)):
        out = io.BytesIO()
        encoder = V2FrameEncoder(out)
        encoder.write_record(record)
        before = len(out.getvalue())
        # Every string is interned now: the second write is one frame.
        encoder.write_record(record)
        frame = out.getvalue()[before:]
        assert frame[0] == FRAME_RECORD
        size = len(frame) - 1 - length_bytes
        assert (size >= 0x80) == (length_bytes == 2)
        length = 0
        for shift, byte in enumerate(frame[1:1 + length_bytes]):
            length |= (byte & 0x7F) << (7 * shift)
        assert length == size
        path = tmp_path / f"{record.handle}.dlog2"
        path.write_bytes(out.getvalue())
        loaded = read_v2_log(path, strict=False).records
        assert [r.to_dict() for r in loaded] == [record.to_dict()] * 2


def test_iter_v2_log_is_a_generator(tmp_path):
    records = [make_record(handle=i) for i in range(5)]
    path = tmp_path / "gen.dlog2"
    write_v2(path, records, end_time=1)
    it = iter_v2_log(path)
    first = next(it)
    assert first.handle == 0
    assert [r.handle for r in it] == [1, 2, 3, 4]


def test_string_table_interns_repeated_labels(tmp_path):
    """1000 records sharing one site must not store the label 1000 times."""
    records = [
        make_record(handle=i, site_label="Hot.site:1", nested=("Hot.site:1",))
        for i in range(1000)
    ]
    path = tmp_path / "interned.dlog2"
    writer = write_v2(path, records, end_time=1)
    assert len(writer._strings) == 3  # "Object", "Hot.site:1", "new"
    v1_bytes = sum(len(json.dumps(r.to_dict())) + 1 for r in records)
    assert os.path.getsize(path) < v1_bytes / 4


def test_shared_allocation_context_reuses_ids_in_order(tmp_path):
    """Records sharing (type, site label, site kind, nested chain) reuse
    one encoded id run. A record with a new chain interns its strings
    first — STRING frames before its RECORD — and a later sampled record
    with an already-seen key adds no STRING frame and keeps its weight."""
    from repro.stream.codec import FRAME_RECORD, FRAME_STRING, FrameParser

    chain = ("A.m:1", "Main.main:3")
    first = make_record(handle=1, size=24, last_use=50, site_label="A.m:1",
                        nested=chain, use_frame="B.use:9")
    other = make_record(handle=2, size=16, site_label="A.m:1",
                        nested=("A.m:1", "Other.run:4"))
    again = make_record(handle=3, size=40, last_use=70, site_label="A.m:1",
                        nested=chain, use_frame="B.use:9").with_weight(8.0)
    path = tmp_path / "ids.dlog2"
    write_v2(path, [first, other, again], end_time=100)

    parser = FrameParser()
    frames = parser.feed_frames(path.read_bytes())
    kinds = [
        payload.decode() if ftype == FRAME_STRING else ftype
        for ftype, payload in frames
    ]
    assert kinds[:-1] == [
        "Object", "A.m:1", "new", "Main.main:3", "B.use:9", FRAME_RECORD,
        "Other.run:4", FRAME_RECORD,
        FRAME_RECORD,
    ]
    loaded = read_v2_log(path)
    assert [r.weight for r in loaded.records] == [1.0, 1.0, 8.0]
    assert [r.to_dict() for r in loaded.records] == [
        r.to_dict() for r in (first, other, again)
    ]


def test_negative_record_field_is_rejected(tmp_path):
    writer = V2LogWriter(tmp_path / "neg.dlog2")
    writer.write_record(make_record(handle=1))
    for record in (make_record(handle=2, created=-5),  # a seen context
                   make_record(handle=3, size=-1, site_label="New.m:2")):
        with pytest.raises(ValueError, match="negative"):
            writer.write_record(record)
    writer.close(end_time=1)


def test_v1_v2_roundtrip_identical(tmp_path):
    """A committed v1 log converted v1 -> v2 -> records matches the v1
    records."""
    v1 = Path(__file__).resolve().parents[1] / "fixtures" / "logs" / "wordcount.draglog"
    v1_loaded = read_log(v1)
    v2 = tmp_path / "run.dlog2"
    write_v2(v2, v1_loaded.records, end_time=v1_loaded.end_time,
             metadata=v1_loaded.metadata)
    v2_loaded = read_log(v2)  # via the auto-detecting reader
    assert v2_loaded.end_time == v1_loaded.end_time == 35016
    assert v2_loaded.metadata == v1_loaded.metadata
    assert [r.to_dict() for r in v2_loaded.records] == [
        r.to_dict() for r in v1_loaded.records
    ]


def test_read_log_autodetects_v2(tmp_path):
    path = tmp_path / "auto.bin"  # extension irrelevant: magic decides
    write_v2(path, [make_record(handle=4)], end_time=5)
    with open(path, "rb") as f:
        assert f.read(4) == MAGIC
    loaded = read_log(path)
    assert len(loaded.records) == 1
    assert [r.handle for r in iter_log(path)] == [4]


def test_truncated_v2_strict_raises_lenient_stops(tmp_path):
    records = [make_record(handle=i) for i in range(20)]
    path = tmp_path / "trunc.dlog2"
    write_v2(path, records, end_time=9)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 7])  # chop mid-frame
    with pytest.raises(ProfileError):
        read_v2_log(path)
    loaded = read_v2_log(path, strict=False)
    assert 0 < len(loaded.records) <= 20
    assert loaded.end_time is None  # END frame was destroyed


def test_missing_end_frame_is_truncation(tmp_path):
    path = tmp_path / "noend.dlog2"
    writer = V2LogWriter(path)
    writer.write_record(make_record(handle=1))
    writer._file.flush()
    os_level_copy = path.read_bytes()
    writer.close()
    path.write_bytes(os_level_copy)  # as if the run crashed before close
    with pytest.raises(ProfileError):
        read_v2_log(path)
    loaded = read_v2_log(path, strict=False)
    assert len(loaded.records) == 1


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.dlog2"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ProfileError):
        read_v2_log(path)


def test_tail_reader_handles_partial_frames(tmp_path):
    """Feeding a growing file byte-group by byte-group yields every
    record exactly once, regardless of where the chunk boundaries cut."""
    records = [make_record(handle=i, site_label=f"S.m:{i % 3}") for i in range(10)]
    full = tmp_path / "full.dlog2"
    write_v2(full, records, samples=[HeapSample(50, 128, 2)], end_time=42)
    data = full.read_bytes()

    growing = tmp_path / "growing.dlog2"
    growing.write_bytes(b"")
    tail = V2TailReader(growing)
    seen = []
    step = 13  # deliberately misaligned with frame boundaries
    for start in range(0, len(data), step):
        with open(growing, "ab") as f:
            f.write(data[start : start + step])
        seen.extend(tail.poll())
    kinds = [k for k, _ in seen]
    assert kinds.count("record") == 10
    assert kinds.count("sample") == 1
    assert kinds[-1] == "end"
    assert tail.ended and tail.end_time == 42
    handles = [r.handle for k, r in seen if k == "record"]
    assert handles == list(range(10))


def test_end_frame_carries_finalizer_errors(tmp_path):
    path = tmp_path / "fe.dlog2"
    writer = V2LogWriter(path)
    writer.write_record(make_record(handle=1))
    writer.close(end_time=500, finalizer_errors=7)
    loaded = read_v2_log(path)
    assert loaded.end_time == 500
    assert loaded.finalizer_errors == 7


def test_end_frame_without_finalizer_errors_reads_none(tmp_path):
    path = tmp_path / "nofe.dlog2"
    write_v2(path, [make_record(handle=1)], end_time=500)
    assert read_v2_log(path).finalizer_errors is None


def test_frame_parser_feed_frames_raw_layer(tmp_path):
    """The serve daemon's ingest layer: raw frames out, strings and END
    state tracked, records left undecoded for the shard that owns them."""
    from repro.stream.codec import (
        FRAME_END,
        FRAME_RECORD,
        FRAME_SAMPLE,
        FRAME_STRING,
        FrameParser,
        _decode_record,
    )

    records = [
        make_record(handle=i, site_label=f"S.m:{i % 3}", use_frame="U.f:1")
        for i in range(10)
    ]
    path = tmp_path / "raw.dlog2"
    write_v2(path, records, samples=[HeapSample(50, 128, 2)], end_time=42)
    parser = FrameParser()
    frames = []
    data = path.read_bytes()
    for start in range(0, len(data), 11):  # misaligned chunks
        frames.extend(parser.feed_frames(data[start : start + 11]))
    assert parser.ended and parser.end_time == 42
    assert not parser.truncated
    kinds = [t for t, _ in frames]
    assert kinds.count(FRAME_RECORD) == 10
    assert kinds.count(FRAME_SAMPLE) == 1
    assert kinds.count(FRAME_END) == 1
    assert kinds.count(FRAME_STRING) == len(parser.strings) > 0
    # raw payloads decode to the originals
    decoded = [
        _decode_record(p, parser.strings, {}) for t, p in frames if t == FRAME_RECORD
    ]
    for original, parsed in zip(records, decoded):
        assert parsed.to_dict() == original.to_dict()


def test_frame_parser_truncated_and_reset(tmp_path):
    from repro.stream.codec import FrameParser

    records = [make_record(handle=i) for i in range(5)]
    path = tmp_path / "t.dlog2"
    write_v2(path, records, end_time=7)
    data = path.read_bytes()

    parser = FrameParser()
    parser.feed_frames(data[: len(data) - 6])  # stop mid-frame
    assert parser.truncated  # pending bytes and no END seen
    assert parser.strings  # partial state is really there...
    parser.reset()
    assert not parser.strings and parser.pending_bytes == 0
    assert parser.metadata == {} and not parser.ended
    # ...and a reset parser consumes a fresh stream from scratch
    events = parser.feed(data)
    assert [k for k, _ in events].count("record") == 5
    assert parser.ended and not parser.truncated


def test_frame_parser_unknown_frame_type_raises(tmp_path):
    from repro.stream.codec import FrameParser, _write_uvarint

    path = tmp_path / "u.dlog2"
    write_v2(path, [make_record(handle=1)], end_time=3)
    bogus = bytearray([0x7F])
    _write_uvarint(bogus, 2)
    bogus += b"xx"
    parser = FrameParser()
    with pytest.raises(ProfileError):
        parser.feed_frames(path.read_bytes() + bytes(bogus))


def test_old_end_frame_layout_still_parses(tmp_path):
    """A pre-field END frame (end_time + count only) must still load."""
    from repro.stream.codec import FRAME_END, _write_uvarint

    path = tmp_path / "old.dlog2"
    writer = V2LogWriter(path)
    writer.write_record(make_record(handle=1))
    # Emit the legacy two-field END frame by hand, then close the file
    # without letting close() write its own.
    buf = bytearray()
    _write_uvarint(buf, 500 + 1)
    _write_uvarint(buf, writer.count)
    writer._frame(FRAME_END, bytes(buf))
    writer._file.close()
    writer._file = None
    loaded = read_v2_log(path)
    assert loaded.end_time == 500
    assert loaded.finalizer_errors is None


def _log_with_bad_frame(case: str) -> bytes:
    """A complete one-record log with one malformed frame before END."""
    import io

    from repro.stream.codec import (
        FRAME_RECORD,
        FRAME_STRING,
        FrameParser,
        V2FrameEncoder,
    )

    out = io.BytesIO()
    encoder = V2FrameEncoder(out)
    encoder.write_record(make_record(handle=1))
    if case == "short_weight":
        # The record again, weight flag set but 3 of the double's 8 bytes.
        payload = [p for t, p in FrameParser().feed_frames(out.getvalue())
                   if t == FRAME_RECORD][0]
        encoder._frame(FRAME_RECORD, bytes([payload[0] | 0x40]) + payload[1:] + b"\x01\x02\x03")
    else:
        encoder._frame(FRAME_STRING, b"\xff\xfe not utf-8")
    encoder.write_end(end_time=10)
    return out.getvalue()


@pytest.mark.parametrize("case", ["short_weight", "bad_utf8"])
def test_corrupt_frame_is_a_profile_error_naming_the_source(tmp_path, case):
    """Every reader reports a malformed frame as a ProfileError that
    names its source, never as a raw struct/Unicode/Index error."""
    from repro.stream.codec import FrameParser

    data = _log_with_bad_frame(case)
    path = tmp_path / f"{case}.dlog2"
    path.write_bytes(data)
    for strict in (True, False):
        with pytest.raises(ProfileError, match=f"{case}.dlog2: corrupt v2 frame"):
            read_log(path, strict=strict)
        with pytest.raises(ProfileError, match=f"{case}.dlog2: corrupt v2 frame"):
            list(iter_log(path, strict=strict))
    with pytest.raises(ProfileError, match=f"{case}.dlog2: corrupt v2 frame"):
        V2TailReader(path).poll()
    with pytest.raises(ProfileError, match="sock-1: corrupt v2 frame"):
        FrameParser(source="sock-1").feed(data)
