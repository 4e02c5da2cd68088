"""The v2 codec's weight field: round-trips, backward compatibility,
and the full-rate byte-identity guarantee.

The contract under test: weight is encoded only when it differs from
1.0, so a full-rate stream is byte-for-byte the pre-weight v2 format —
old readers parse new full-rate files, and the new reader parses old
files with every weight defaulting to 1.0.
"""

import io
import struct

import pytest

from repro.core.trailer import ObjectRecord
from repro.stream.codec import (
    V2FrameEncoder,
    V2LogWriter,
    decode_end_totals,
    read_v2_log,
)
from tests.core.test_analyzer import make_record

_F_HAS_WEIGHT = 0x40


def encode_stream(records, end_time=5000, metadata=None):
    buf = io.BytesIO()
    enc = V2FrameEncoder(buf, metadata=metadata)
    for record in records:
        enc.write_record(record)
    enc.write_end(end_time=end_time)
    return buf.getvalue(), enc


def record_payloads(data):
    """Split a v2 byte stream into (frame_type, payload) pairs."""
    from repro.stream.codec import MAGIC, _read_uvarint

    assert data[: len(MAGIC)] == MAGIC
    pos = len(MAGIC) + 1  # magic + version byte
    header_len, pos = _read_uvarint(data, pos)
    pos += header_len  # skip the JSON header
    frames = []
    while pos < len(data):
        frame_type = data[pos]
        length, pos = _read_uvarint(data, pos + 1)
        frames.append((frame_type, data[pos : pos + length]))
        pos += length
    return frames


FRAME_RECORD = None  # resolved lazily from the codec's constants


def _record_frames(data):
    from repro.stream import codec

    return [
        payload
        for ftype, payload in record_payloads(data)
        if ftype == codec.FRAME_RECORD
    ]


def _end_payload(data):
    from repro.stream import codec

    ends = [p for t, p in record_payloads(data) if t == codec.FRAME_END]
    assert len(ends) == 1
    return ends[0]


def test_weighted_record_round_trip(tmp_path):
    records = [
        make_record(handle=1, size=64, site_label="A.m:1").with_weight(12.5),
        make_record(handle=2, size=640, site_label="B.m:2"),  # weight 1.0
        make_record(handle=3, size=8, site_label="C.m:3").with_weight(101.25),
    ]
    path = tmp_path / "w.dlog2"
    with V2LogWriter(path) as writer:
        for record in records:
            writer.write_record(record)
        writer.close(end_time=900)
    loaded = read_v2_log(path)
    assert [r.weight for r in loaded.records] == [12.5, 1.0, 101.25]
    assert [r.to_dict() for r in loaded.records] == [r.to_dict() for r in records]


def test_full_rate_stream_has_no_weight_flag_and_no_end_totals():
    """A stream of weight-1.0 records is the pre-weight wire format:
    no record carries the weight flag, and END has no trailing totals —
    exactly what an old reader expects."""
    records = [make_record(handle=h, size=32 * h) for h in range(1, 20)]
    data, enc = encode_stream(records)
    for payload in _record_frames(data):
        assert not payload[0] & _F_HAS_WEIGHT
    assert decode_end_totals(_end_payload(data)) == (None, None)
    # and the encoder's running totals stay exact ints
    assert enc.weighted_count == len(records)
    assert enc.weighted_bytes == sum(r.size for r in records)


def test_weighted_stream_end_totals_round_trip():
    records = [
        make_record(handle=1, size=100).with_weight(3.0),
        make_record(handle=2, size=50),
        make_record(handle=3, size=10).with_weight(20.0),
    ]
    data, enc = encode_stream(records)
    est_objects, est_bytes = decode_end_totals(_end_payload(data))
    assert est_objects == pytest.approx(3.0 + 1 + 20.0)
    assert est_bytes == pytest.approx(3.0 * 100 + 50 + 20.0 * 10)
    assert enc.weighted_count == pytest.approx(est_objects)
    assert enc.weighted_bytes == pytest.approx(est_bytes)


def test_end_totals_surface_on_loaded_log(tmp_path):
    path = tmp_path / "w.dlog2"
    with V2LogWriter(path) as writer:
        writer.write_record(make_record(handle=1, size=100).with_weight(4.0))
        writer.close(end_time=10)
    loaded = read_v2_log(path)
    assert loaded.est_objects == pytest.approx(4.0)
    assert loaded.est_bytes == pytest.approx(400.0)

    full = tmp_path / "f.dlog2"
    with V2LogWriter(full) as writer:
        writer.write_record(make_record(handle=1, size=100))
        writer.close(end_time=10)
    loaded = read_v2_log(full)
    assert loaded.est_objects is None  # old-format END: no totals
    assert loaded.est_bytes is None


def test_weight_field_is_trailing_eight_bytes():
    """The weight rides at the payload tail as a little-endian double,
    after every other field, so readers predating it still parse the
    record."""
    record = make_record(handle=2, size=40).with_weight(6.25)
    data, _ = encode_stream([record])
    (payload,) = _record_frames(data)
    assert payload[0] & _F_HAS_WEIGHT
    assert struct.unpack("<d", payload[-8:])[0] == 6.25


def test_weighted_properties_exact_ints_at_full_rate():
    record = make_record(size=128, created=0, last_use=10, collected=100)
    assert record.weighted_count == 1
    assert isinstance(record.weighted_count, int)
    assert record.weighted_size == 128
    assert isinstance(record.weighted_size, int)
    assert record.weighted_drag == record.drag
    assert isinstance(record.weighted_drag, int)

    heavy = record.with_weight(2.0)
    assert heavy.weighted_count == 2.0
    assert heavy.weighted_size == 256.0
    assert heavy.weighted_drag == pytest.approx(2.0 * record.drag)


def test_weight_survives_json_round_trip():
    record = make_record(size=64).with_weight(7.5)
    data = record.to_dict()
    assert data["weight"] == 7.5
    assert ObjectRecord.from_dict(data).weight == 7.5
    plain = make_record(size=64)
    assert "weight" not in plain.to_dict()  # v1 logs stay weightless
    assert ObjectRecord.from_dict(plain.to_dict()).weight == 1.0
