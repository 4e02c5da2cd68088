"""Serve wire protocol: handshake framing and host:port parsing."""

import asyncio
import io

import pytest

from repro.serve.protocol import (
    DEFAULT_PORT,
    HELLO_MAGIC,
    MAX_JSON_FRAME,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_json_frame,
    encode_hello,
    encode_json_frame,
    parse_hostport,
    read_hello,
    read_json_frame_sync,
)
from repro.stream.codec import _write_uvarint


def run_hello(data: bytes) -> dict:
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_hello(reader)

    return asyncio.run(go())


def test_json_frame_roundtrip():
    obj = {"ok": True, "stream_id": 7, "nested": {"a": [1, 2]}}
    data = encode_json_frame(obj)
    decoded, pos = decode_json_frame(data)
    assert decoded == obj
    assert pos == len(data)
    # and through the blocking reader used by clients
    assert read_json_frame_sync(io.BytesIO(data)) == obj


def test_json_frame_sync_truncation_raises():
    data = encode_json_frame({"k": "v" * 100})
    with pytest.raises(ProtocolError):
        read_json_frame_sync(io.BytesIO(data[:-5]))
    with pytest.raises(ProtocolError):
        read_json_frame_sync(io.BytesIO(b""))


def test_hello_roundtrip():
    data = encode_hello({"program": "Main.mj", "run": "primary"})
    assert data.startswith(HELLO_MAGIC + bytes([PROTOCOL_VERSION]))
    metadata = run_hello(data)
    assert metadata == {"program": "Main.mj", "run": "primary"}


def test_hello_without_metadata_is_empty_dict():
    assert run_hello(encode_hello()) == {}


def test_hello_bad_magic_rejected():
    data = b"NOPE" + bytes([PROTOCOL_VERSION]) + encode_json_frame({})
    with pytest.raises(ProtocolError):
        run_hello(data)


def test_hello_bad_version_rejected():
    data = HELLO_MAGIC + bytes([99]) + encode_json_frame({"protocol": 99})
    with pytest.raises(ProtocolError):
        run_hello(data)


def test_hello_cut_before_frame_rejected():
    with pytest.raises(ProtocolError):
        run_hello(HELLO_MAGIC)


def _hello_with(body: dict) -> bytes:
    return HELLO_MAGIC + bytes([PROTOCOL_VERSION]) + encode_json_frame(body)


@pytest.mark.parametrize("metadata", [[1, 2], "Main.mj", 7, True])
def test_hello_non_object_metadata_rejected(metadata):
    with pytest.raises(ProtocolError, match="metadata"):
        run_hello(_hello_with({"protocol": 1, "metadata": metadata}))


def test_hello_null_metadata_is_empty_dict():
    assert run_hello(_hello_with({"protocol": 1, "metadata": None})) == {}


def _length_prefix(length: int) -> bytes:
    buf = bytearray()
    _write_uvarint(buf, length)
    return bytes(buf)


def test_oversized_json_frame_refused_before_reading_it():
    """A declared length past MAX_JSON_FRAME fails on the prefix alone:
    no reader waits for, or buffers, the payload it announces."""
    data = _length_prefix(MAX_JSON_FRAME + 1) + b"{}"
    with pytest.raises(ProtocolError, match="limit"):
        read_json_frame_sync(io.BytesIO(data))
    with pytest.raises(ProtocolError, match="limit"):
        decode_json_frame(data)

    async def go():
        # No EOF is fed: a reader that trusted the prefix would block.
        reader = asyncio.StreamReader()
        reader.feed_data(HELLO_MAGIC + bytes([PROTOCOL_VERSION]) + data)
        return await asyncio.wait_for(read_hello(reader), timeout=5)

    with pytest.raises(ProtocolError, match="limit"):
        asyncio.run(go())


def test_json_frame_at_the_limit_is_accepted():
    body = {"pad": "x" * (MAX_JSON_FRAME - len('{"pad": ""}'))}
    data = encode_json_frame(body)
    assert len(data) - len(_length_prefix(MAX_JSON_FRAME)) == MAX_JSON_FRAME
    assert read_json_frame_sync(io.BytesIO(data)) == body
    assert decode_json_frame(data) == (body, len(data))


def test_overlong_length_prefix_rejected():
    data = b"\x80" * 8 + b"\x00{}"
    with pytest.raises(ProtocolError, match="prefix"):
        read_json_frame_sync(io.BytesIO(data))


def test_parse_hostport():
    assert parse_hostport("example.com:9000") == ("example.com", 9000)
    assert parse_hostport("example.com") == ("example.com", DEFAULT_PORT)
    assert parse_hostport(":9000") == ("127.0.0.1", 9000)
    assert parse_hostport("host", default_port=1234) == ("host", 1234)
    with pytest.raises(ProtocolError):
        parse_hostport("host:notaport")
