"""Wire protocol between profile clients and the serve daemon.

One TCP connection carries one profile stream::

    client -> server   HELLO: "RSV1" VERSION(1 byte) uvarint(len) JSON
    server -> client   ACK:   uvarint(len) JSON {ok, stream_id, shards}
    client -> server   the v2 log byte stream ("RDL2" header + frames)
    server -> client   FIN:   uvarint(len) JSON {ok, records, truncated}

The HELLO JSON carries run metadata (program name, run label, whatever
``repro profile`` knows); the server threads it into the stream's
identity for /summary. Everything after the ACK is byte-identical to a
v2 log file, so a recorded ``.dlog2`` can be replayed verbatim and the
server's per-connection parser is exactly the file parser
(:class:`repro.stream.codec.FrameParser`).
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

from repro.errors import ProfileError
from repro.stream.codec import _read_uvarint, _write_uvarint

HELLO_MAGIC = b"RSV1"
PROTOCOL_VERSION = 1

#: Default TCP ingest port; the HTTP port defaults to this + 1.
DEFAULT_PORT = 7091

#: Largest HELLO/ACK/FIN JSON payload a reader accepts. A longer
#: declared length is refused before any payload byte is read, so a
#: bogus length prefix cannot make a reader buffer without limit.
MAX_JSON_FRAME = 1 << 20

# Bytes of a canonical uvarint holding any length up to MAX_JSON_FRAME.
_LENGTH_PREFIX_BYTES = 3


class ProtocolError(ProfileError):
    """A peer violated the serve handshake."""


def encode_json_frame(obj: dict) -> bytes:
    """uvarint(len) + JSON — the ACK/FIN framing."""
    payload = json.dumps(obj, sort_keys=True).encode("utf-8")
    buf = bytearray()
    _write_uvarint(buf, len(payload))
    return bytes(buf) + payload


def encode_hello(metadata: Optional[dict] = None) -> bytes:
    """The client's opening bytes: magic, version, metadata frame."""
    hello = {"protocol": PROTOCOL_VERSION}
    if metadata:
        hello["metadata"] = metadata
    return HELLO_MAGIC + bytes([PROTOCOL_VERSION]) + encode_json_frame(hello)


def _checked_length(length: int, source: str) -> int:
    if length > MAX_JSON_FRAME:
        raise ProtocolError(
            f"{source}: JSON frame of {length} bytes exceeds the "
            f"{MAX_JSON_FRAME}-byte limit"
        )
    return length


def _prefix_too_long(source: str) -> ProtocolError:
    return ProtocolError(
        f"{source}: JSON frame length prefix runs past "
        f"{_LENGTH_PREFIX_BYTES} bytes"
    )


def _decode_json(payload: bytes, source: str) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bad UTF-8 and over-long
        # integer literals; RecursionError, pathologically deep nesting.
        raise ProtocolError(f"{source}: bad JSON frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"{source}: JSON frame is not an object")
    return obj


def read_json_frame_sync(fp, source: str = "<peer>") -> dict:
    """Read one length-prefixed JSON frame from a blocking file-like."""
    length = 0
    for shift in range(0, 7 * _LENGTH_PREFIX_BYTES, 7):
        byte = fp.read(1)
        if not byte:
            raise ProtocolError(f"{source}: connection closed mid-frame")
        length |= (byte[0] & 0x7F) << shift
        if not byte[0] & 0x80:
            break
    else:
        raise _prefix_too_long(source)
    payload = fp.read(_checked_length(length, source))
    if len(payload) != length:
        raise ProtocolError(f"{source}: connection closed mid-frame")
    return _decode_json(payload, source)


async def read_json_frame(reader, source: str = "<peer>") -> dict:
    """Read one length-prefixed JSON frame from an asyncio StreamReader."""
    import asyncio

    length = 0
    try:
        for shift in range(0, 7 * _LENGTH_PREFIX_BYTES, 7):
            byte = await reader.readexactly(1)
            length |= (byte[0] & 0x7F) << shift
            if not byte[0] & 0x80:
                break
        else:
            raise _prefix_too_long(source)
        payload = await reader.readexactly(_checked_length(length, source))
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(f"{source}: connection closed mid-frame") from exc
    return _decode_json(payload, source)


async def read_hello(reader, source: str = "<peer>") -> dict:
    """Server side: consume and validate the client HELLO; returns its
    metadata dict (empty when absent or null). Metadata that is not a
    JSON object is a :class:`ProtocolError`."""
    import asyncio

    try:
        magic = await reader.readexactly(len(HELLO_MAGIC) + 1)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(f"{source}: connection closed before HELLO") from exc
    if magic[: len(HELLO_MAGIC)] != HELLO_MAGIC:
        raise ProtocolError(f"{source}: not a repro serve client (bad magic)")
    version = magic[len(HELLO_MAGIC)]
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"{source}: unsupported protocol version {version}")
    hello = await read_json_frame(reader, source)
    metadata = hello.get("metadata")
    if metadata is None:
        return {}
    if not isinstance(metadata, dict):
        raise ProtocolError(f"{source}: HELLO metadata is not a JSON object")
    return metadata


def decode_json_frame(data: bytes, pos: int = 0) -> Tuple[dict, int]:
    """Decode one JSON frame at ``pos`` in a buffer; returns
    (object, next_pos). For tests and offline tools."""
    source = "<buffer>"
    try:
        length, pos = _read_uvarint(data, pos)
    except IndexError as exc:
        raise ProtocolError(f"{source}: truncated JSON frame length") from exc
    end = pos + _checked_length(length, source)
    if end > len(data):
        raise ProtocolError(f"{source}: JSON frame overruns the buffer")
    return _decode_json(data[pos:end], source), end


def parse_hostport(spec: str, default_port: int = DEFAULT_PORT) -> Tuple[str, int]:
    """``"host:port"`` / ``"host"`` / ``":port"`` → (host, port)."""
    host, sep, port = spec.rpartition(":")
    if not sep:
        return spec or "127.0.0.1", default_port
    try:
        return host or "127.0.0.1", int(port)
    except ValueError as exc:
        raise ProtocolError(f"bad host:port {spec!r}") from exc
