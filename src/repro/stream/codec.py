"""The compact v2 log codec: length-prefixed binary frames.

Layout::

    MAGIC "RDL2"  VERSION(1 byte)  uvarint(len)  header-JSON
    frame*                         # type byte, uvarint(len), payload
    [END frame]                    # end_time + record count, at close

Frame types: ``STRING`` interns one UTF-8 string into the reader's
string table (ids are assigned sequentially in order of appearance, so
the table never needs to be declared up front and the writer can
stream); ``RECORD`` is one struct-packed object record whose strings —
type name, site labels, nested call chains — are table ids; ``SAMPLE``
is one deep-GC heap sample; ``END`` closes the log.

All integers are unsigned LEB128 varints, so the common small values
(sizes, table ids, chain lengths) take one byte. Because every frame is
length-prefixed, a reader can detect a truncated tail (crashed run)
and, in non-strict mode, simply stop there — and the tail reader behind
``repro watch`` can resume parsing exactly where the last complete
frame ended while the file is still growing.

Typical v2 logs are 5-10x smaller than the JSONL v1 equivalent; the
string table is what removes the per-record repetition of site labels
and call chains.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import IO, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ProfileError
from repro.core.trailer import HeapSample, ObjectRecord

MAGIC = b"RDL2"
VERSION = 2

FRAME_STRING = 0x01
FRAME_RECORD = 0x02
FRAME_SAMPLE = 0x03
FRAME_END = 0x04

# Record flag bits.
_F_LIBRARY = 0x01
_F_EXCLUDED = 0x02
_F_SURVIVED = 0x04
_F_HAS_SITE = 0x08
_F_HAS_USE_FRAME = 0x10
_F_HAS_USE_CHAIN = 0x20
# Byte-sampled record: an IEEE-754 double (little-endian) statistical
# weight trails the payload. Set only when weight != 1.0, so full-rate
# logs are byte-identical to logs written before the field existed, and
# readers predating the bit parse weighted-era full-rate logs unchanged.
_F_HAS_WEIGHT = 0x40


def _write_uvarint(buf: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def _read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    """Decode one uvarint at ``pos``; returns (value, next_pos).

    Raises IndexError when the varint runs off the end of ``data``.
    Values below 0x80 (ids, lengths, most sizes) return on the first
    byte without entering the loop.
    """
    byte = data[pos]
    pos += 1
    if byte < 0x80:
        return byte, pos
    result = byte & 0x7F
    shift = 7
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7


class V2FrameEncoder:
    """Encode the v2 frame stream onto any binary ``write()`` target.

    The byte sequence is identical whether the target is a file (via
    :class:`V2LogWriter`) or a socket (via
    :class:`repro.serve.client.ServeSink`), so a server ingesting the
    stream and a reader replaying the file decode with the same parser.
    """

    def __init__(self, out, metadata: Optional[dict] = None) -> None:
        self.metadata = metadata
        self.count = 0
        self.sample_count = 0
        # Weight-estimated totals (Horvitz-Thompson): ints until the
        # first weighted record, so full-rate streams never emit them.
        self.weighted_count = 0
        self.weighted_bytes = 0
        self._weighted = False
        self._strings: Dict[str, int] = {}
        # (type, site label, site kind, nested chain, last-use frame) ->
        # the record's encoded string-id run; bounded by the run's
        # distinct allocation contexts times their last-use positions.
        self._id_runs: Dict[tuple, bytes] = {}
        self._out = out
        header = {"format": "repro-drag-log", "version": VERSION}
        if metadata:
            header["metadata"] = metadata
        payload = json.dumps(header).encode("utf-8")
        prefix = bytearray()
        prefix += MAGIC
        prefix.append(VERSION)
        _write_uvarint(prefix, len(payload))
        self._out.write(bytes(prefix) + payload)

    # -- frame plumbing ---------------------------------------------------

    def _frame(self, frame_type: int, payload: bytes) -> None:
        head = bytearray()
        head.append(frame_type)
        _write_uvarint(head, len(payload))
        self._out.write(bytes(head) + payload)

    def _intern(self, text: str) -> int:
        sid = self._strings.get(text)
        if sid is None:
            sid = self._strings[text] = len(self._strings)
            self._frame(FRAME_STRING, text.encode("utf-8"))
        return sid

    # -- events -----------------------------------------------------------

    def write_record(self, record: ObjectRecord) -> None:
        flags = 0
        if record.site_is_library:
            flags |= _F_LIBRARY
        if record.excluded:
            flags |= _F_EXCLUDED
        if record.survived_to_end:
            flags |= _F_SURVIVED
        alloc_site = record.alloc_site
        if alloc_site is not None:
            flags |= _F_HAS_SITE
        use_frame = record.last_use_frame
        if use_frame is not None:
            flags |= _F_HAS_USE_FRAME
        use_chain = record.last_use_chain
        if use_chain is not None:
            flags |= _F_HAS_USE_CHAIN
        weight = record.weight
        if weight != 1.0:
            flags |= _F_HAS_WEIGHT
        # Interning may emit STRING frames; they must precede the record.
        # String ids never change once interned, so the encoded run of
        # the context's ids and the last-use frame's id is built (and
        # its strings interned, in field order) only the first time the
        # combination is seen.
        key = (record.type_name, record.site_label, record.site_kind,
               record.nested_alloc, use_frame)
        ids = self._id_runs.get(key)
        if ids is None:
            intern = self._intern
            run = bytearray()
            _write_uvarint(run, intern(record.type_name))
            _write_uvarint(run, intern(record.site_label))
            _write_uvarint(run, intern(record.site_kind))
            _write_uvarint(run, len(record.nested_alloc))
            for text in record.nested_alloc:
                _write_uvarint(run, intern(text))
            if use_frame is not None:
                _write_uvarint(run, intern(use_frame))
            ids = self._id_runs[key] = bytes(run)
        chain_ids = (
            [self._intern(s) for s in use_chain] if use_chain is not None else None
        )
        # The frame type, a one-byte length placeholder and the payload
        # go into one buffer, written once (see the end).
        buf = bytearray((FRAME_RECORD, 0, flags))
        if alloc_site is None:
            fields = (record.handle, record.size, record.creation_time,
                      record.first_use_time, record.last_use_time,
                      record.collection_time)
        else:
            fields = (record.handle, record.size, record.creation_time,
                      record.first_use_time, record.last_use_time,
                      record.collection_time, alloc_site)
        append = buf.append
        for value in fields:  # _write_uvarint, inlined
            if value < 0:
                raise ValueError(f"uvarint cannot encode negative value {value}")
            while value > 0x7F:
                append((value & 0x7F) | 0x80)
                value >>= 7
            append(value)
        buf += ids
        if chain_ids is not None:
            _write_uvarint(buf, len(chain_ids))
            for sid in chain_ids:
                _write_uvarint(buf, sid)
        if weight != 1.0:
            # Trailing position is load-bearing: readers predating the
            # field stop before it and still parse the record.
            buf += struct.pack("<d", weight)
            self._weighted = True
            self.weighted_count += weight
            self.weighted_bytes += weight * record.size
        else:
            self.weighted_count += 1
            self.weighted_bytes += record.size
        size = len(buf) - 2
        if size < 0x80:
            buf[1] = size
        else:
            length = bytearray()
            _write_uvarint(length, size)
            buf[1:2] = length
        self._out.write(buf)
        self.count += 1

    def write_sample(self, sample) -> None:
        buf = bytearray()
        _write_uvarint(buf, sample.time)
        _write_uvarint(buf, sample.reachable_bytes)
        _write_uvarint(buf, sample.object_count)
        self._frame(FRAME_SAMPLE, bytes(buf))
        self.sample_count += 1

    def write_end(
        self,
        end_time: Optional[int] = None,
        finalizer_errors: Optional[int] = None,
    ) -> None:
        buf = bytearray()
        _write_uvarint(buf, 0 if end_time is None else end_time + 1)
        _write_uvarint(buf, self.count)
        # Trailing optional field (None-biased, 0 = unknown): readers of
        # older logs stop at the declared count, newer readers pick this
        # up when present.
        _write_uvarint(
            buf, 0 if finalizer_errors is None else finalizer_errors + 1
        )
        if self._weighted:
            # Weight-estimated totals alongside the observed count:
            # emitted only for sampled streams (so full-rate logs stay
            # byte-identical), and strictly trailing (so readers that
            # predate them parse the frame unchanged).
            buf += struct.pack(
                "<dd", float(self.weighted_count), float(self.weighted_bytes)
            )
        self._frame(FRAME_END, bytes(buf))


class V2LogWriter(V2FrameEncoder):
    """Streaming writer: frames hit the file as events arrive."""

    def __init__(self, path: Union[str, Path], metadata: Optional[dict] = None) -> None:
        self.path = Path(path)
        self._file: Optional[IO[bytes]] = open(self.path, "wb")
        super().__init__(self._file, metadata=metadata)

    def close(
        self,
        end_time: Optional[int] = None,
        finalizer_errors: Optional[int] = None,
    ) -> None:
        if self._file is None:
            return
        self.write_end(end_time=end_time, finalizer_errors=finalizer_errors)
        self._file.close()
        self._file = None

    def __enter__(self) -> "V2LogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

_unpack_double = struct.Struct("<d").unpack_from

# What a malformed frame raises inside the decoder. Every reader turns
# these into one ProfileError that names its source and the offset.
_CORRUPT = (IndexError, struct.error, UnicodeDecodeError)

# Entries one stream's decode cache may hold (see _decode_record_at).
# db's 5,783-record log has 54 distinct record tails. Past the cap a new
# tail is decoded but not kept, so a stream whose records all end
# differently cannot grow a long-lived reader, a serve shard say,
# without limit.
_TAIL_CACHE_LIMIT = 4096


def _read_strings(buf, pos: int, strings: List[str]) -> Tuple[Tuple[str, ...], int]:
    """Decode a count-prefixed list of string-table ids at ``pos``."""
    read = _read_uvarint
    count, pos = read(buf, pos)
    if count > len(buf) - pos:  # every id takes at least one byte
        raise IndexError(f"string list of {count} ids overruns the buffer")
    out = []
    for _ in range(count):
        sid, pos = read(buf, pos)
        out.append(strings[sid])
    return tuple(out), pos


def _decode_tail(buf, pos: int, end: int, flags: int, strings: List[str]) -> tuple:
    """Decode a RECORD's tail, ``buf[pos:end]``: its string-id run, then
    the optional last-use chain and weight. Returns ``(type, label,
    kind, nested, use_frame, use_chain, weight)``."""
    read = _read_uvarint
    type_id, pos = read(buf, pos)
    label_id, pos = read(buf, pos)
    kind_id, pos = read(buf, pos)
    nested, pos = _read_strings(buf, pos, strings)
    use_frame = None
    if flags & _F_HAS_USE_FRAME:
        sid, pos = read(buf, pos)
        use_frame = strings[sid]
    use_chain = None
    if flags & _F_HAS_USE_CHAIN:
        use_chain, pos = _read_strings(buf, pos, strings)
    weight = 1.0
    if flags & _F_HAS_WEIGHT:
        weight = _unpack_double(buf, pos)[0]
        pos += 8
    if pos > end:
        raise IndexError("RECORD payload overruns its frame")
    # Trailing bytes past the known fields are tolerated: that is how
    # readers predating a strictly trailing field (the weight) parse it.
    return (strings[type_id], strings[label_id], strings[kind_id], nested,
            use_frame, use_chain, weight)


def _decode_record_at(
    buf: bytes, pos: int, end: int, strings: List[str], tails: dict
) -> ObjectRecord:
    """Decode the RECORD payload ``buf[pos:end]`` in place.

    This is the only record decoder: the frame loop runs it over its
    buffer without copying the payload out, and the serve shards run it
    over standalone payloads (:func:`_decode_record`). A malformed
    payload raises one of ``_CORRUPT``.

    The leading varints (handle, size, the four times, the site) are
    decoded inline, with 1-, 2- and 3-byte fast paths. The rest of the
    payload, its tail, repeats: the writer builds the string-id run
    once per allocation context and last-use frame
    (``V2FrameEncoder._id_runs``). So ``tails``, the stream's decode
    cache, maps ``(flags, tail bytes)`` to the decoded tail. Ids never
    change once interned, so a hit is exactly what decoding the same
    bytes against the same table gave before. Leading varints that
    overrun the payload leave an empty tail, which never decodes and
    so is never cached.
    """
    read = _read_uvarint
    flags = buf[pos]
    pos += 1
    b = buf[pos]
    if b < 0x80:
        handle = b
        pos += 1
    elif buf[pos + 1] < 0x80:
        handle = (b & 0x7F) | buf[pos + 1] << 7
        pos += 2
    elif buf[pos + 2] < 0x80:
        handle = (b & 0x7F) | (buf[pos + 1] & 0x7F) << 7 | buf[pos + 2] << 14
        pos += 3
    else:
        handle, pos = read(buf, pos)
    b = buf[pos]
    if b < 0x80:
        size = b
        pos += 1
    elif buf[pos + 1] < 0x80:
        size = (b & 0x7F) | buf[pos + 1] << 7
        pos += 2
    elif buf[pos + 2] < 0x80:
        size = (b & 0x7F) | (buf[pos + 1] & 0x7F) << 7 | buf[pos + 2] << 14
        pos += 3
    else:
        size, pos = read(buf, pos)
    b = buf[pos]
    if b < 0x80:
        created = b
        pos += 1
    elif buf[pos + 1] < 0x80:
        created = (b & 0x7F) | buf[pos + 1] << 7
        pos += 2
    elif buf[pos + 2] < 0x80:
        created = (b & 0x7F) | (buf[pos + 1] & 0x7F) << 7 | buf[pos + 2] << 14
        pos += 3
    else:
        created, pos = read(buf, pos)
    b = buf[pos]
    if b < 0x80:
        first_use = b
        pos += 1
    elif buf[pos + 1] < 0x80:
        first_use = (b & 0x7F) | buf[pos + 1] << 7
        pos += 2
    elif buf[pos + 2] < 0x80:
        first_use = (b & 0x7F) | (buf[pos + 1] & 0x7F) << 7 | buf[pos + 2] << 14
        pos += 3
    else:
        first_use, pos = read(buf, pos)
    b = buf[pos]
    if b < 0x80:
        last_use = b
        pos += 1
    elif buf[pos + 1] < 0x80:
        last_use = (b & 0x7F) | buf[pos + 1] << 7
        pos += 2
    elif buf[pos + 2] < 0x80:
        last_use = (b & 0x7F) | (buf[pos + 1] & 0x7F) << 7 | buf[pos + 2] << 14
        pos += 3
    else:
        last_use, pos = read(buf, pos)
    b = buf[pos]
    if b < 0x80:
        collected = b
        pos += 1
    elif buf[pos + 1] < 0x80:
        collected = (b & 0x7F) | buf[pos + 1] << 7
        pos += 2
    elif buf[pos + 2] < 0x80:
        collected = (b & 0x7F) | (buf[pos + 1] & 0x7F) << 7 | buf[pos + 2] << 14
        pos += 3
    else:
        collected, pos = read(buf, pos)
    alloc_site = None
    if flags & _F_HAS_SITE:
        b = buf[pos]
        if b < 0x80:
            alloc_site = b
            pos += 1
        elif buf[pos + 1] < 0x80:
            alloc_site = (b & 0x7F) | buf[pos + 1] << 7
            pos += 2
        elif buf[pos + 2] < 0x80:
            alloc_site = (b & 0x7F) | (buf[pos + 1] & 0x7F) << 7 | buf[pos + 2] << 14
            pos += 3
        else:
            alloc_site, pos = read(buf, pos)
    key = (flags, buf[pos:end])
    tail = tails.get(key)
    if tail is None:
        tail = _decode_tail(buf, pos, end, flags, strings)
        if len(tails) < _TAIL_CACHE_LIMIT:
            tails[key] = tail
    type_name, label, kind, nested, use_frame, use_chain, weight = tail
    return ObjectRecord(
        handle, type_name, size, created, last_use, collected,
        alloc_site, label, kind,
        bool(flags & _F_LIBRARY), nested, use_frame, use_chain,
        bool(flags & _F_EXCLUDED), bool(flags & _F_SURVIVED),
        first_use, weight,
    )


def _decode_record(
    payload: bytes, strings: List[str], tails: dict, source: str = "<record>"
) -> ObjectRecord:
    """Decode one standalone RECORD payload (the serve shards' path);
    ``tails`` is the stream's decode cache."""
    try:
        return _decode_record_at(payload, 0, len(payload), strings, tails)
    except _CORRUPT as exc:
        raise ProfileError(f"{source}: corrupt v2 RECORD payload: {exc}") from exc


def decode_sample(buf, pos: int = 0, end: Optional[int] = None) -> Tuple[int, int, int]:
    """Decode a SAMPLE payload into ``(time, reachable_bytes, object_count)``."""
    time, pos = _read_uvarint(buf, pos)
    reachable, pos = _read_uvarint(buf, pos)
    count, pos = _read_uvarint(buf, pos)
    if pos > (len(buf) if end is None else end):
        raise IndexError("SAMPLE payload overruns its frame")
    return time, reachable, count


def decode_end(payload: bytes) -> Tuple[Optional[int], int, Optional[int]]:
    """Decode an END frame payload into
    ``(end_time, declared_count, finalizer_errors)``."""
    pos = 0
    raw_end, pos = _read_uvarint(payload, pos)
    end_time = None if raw_end == 0 else raw_end - 1
    declared_count, pos = _read_uvarint(payload, pos)
    finalizer_errors = None
    if pos < len(payload):  # logs predating the field omit it
        raw_fe, pos = _read_uvarint(payload, pos)
        finalizer_errors = None if raw_fe == 0 else raw_fe - 1
    return end_time, declared_count, finalizer_errors


def decode_end_totals(payload: bytes) -> Tuple[Optional[float], Optional[float]]:
    """The weight-estimated ``(objects, bytes)`` totals a sampled
    stream's END frame carries after its varint fields, or
    ``(None, None)`` for full-rate and pre-weight logs (which omit
    them — the observed count already *is* the estimate)."""
    pos = 0
    _, pos = _read_uvarint(payload, pos)  # end_time
    _, pos = _read_uvarint(payload, pos)  # declared_count
    if pos < len(payload) - 16:  # optional finalizer_errors varint
        _, pos = _read_uvarint(payload, pos)
    if pos + 16 <= len(payload):
        return struct.unpack_from("<dd", payload, pos)
    return None, None


class FrameParser:
    """Incremental frame decoder over an append-only byte stream.

    Feed it chunks as the file grows; it returns complete events and
    keeps partial frames pending. Every reader shares its one decode
    loop, :meth:`_scan`: the one-shot readers, :class:`V2TailReader`,
    and — via the undecoded :meth:`feed_frames` layer — the serve
    daemon's per-connection ingest, which routes raw frames to shard
    workers without decoding records centrally.
    """

    def __init__(self, source: str = "<stream>") -> None:
        self.source = source
        self.reset()

    def reset(self) -> None:
        """Return to the pristine pre-header state.

        A serve connection that disconnects mid-frame (or sends garbage)
        leaves partial state behind; resetting lets the owner reuse the
        parser for a fresh stream without leaking the poisoned buffer or
        string table into it.
        """
        self.strings: List[str] = []
        # The decode cache of _decode_record_at: bound to this stream's
        # string table, so it goes whenever the table does.
        self._tails: dict = {}
        self.metadata: dict = {}
        self.end_time: Optional[int] = None
        self.declared_count: Optional[int] = None
        self.finalizer_errors: Optional[int] = None
        # Weight-estimated totals from a sampled stream's END frame
        # (None for full-rate / pre-weight logs).
        self.est_objects: Optional[float] = None
        self.est_bytes: Optional[float] = None
        self.ended = False
        self._buf = bytearray()
        self._base = 0  # stream offset of _buf[0], for error messages
        self._header_done = False

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)

    @property
    def truncated(self) -> bool:
        """True when the stream stopped mid-frame or before its END
        frame — what a crashed or disconnected writer leaves behind."""
        return bool(self._buf) or not self.ended

    def feed_frames(self, chunk: bytes) -> List[Tuple[int, bytes]]:
        """Absorb ``chunk``; return complete raw ``(type, payload)``
        frames without decoding them. STRING frames still update
        :attr:`strings` (every downstream consumer needs the table);
        END frames still set the end-of-stream state."""
        frames: List[Tuple[int, bytes]] = []
        append = frames.append
        self._scan(chunk, None, lambda frame_type, payload: append((frame_type, payload)))
        return frames

    def feed(self, chunk: bytes) -> List[Tuple[str, object]]:
        """Absorb ``chunk``; return the newly completed events as
        ``("record", ObjectRecord)`` / ``("sample", HeapSample)`` /
        ``("end", end_time)`` tuples, in stream order."""
        events: List[Tuple[str, object]] = []
        append = events.append
        self._scan(
            chunk,
            lambda record: append(("record", record)),
            lambda kind, value: append((kind, value)),
        )
        return events

    def _scan(self, chunk: bytes, on_record, on_other) -> None:
        """Decode every complete frame of the buffer plus ``chunk``.

        One offset walks the buffer; payloads are decoded where they
        lie in one ``bytes`` copy of it, and the consumed prefix is
        dropped once at the end. With ``on_record`` set, each RECORD is
        decoded and passed to it, and ``on_other`` gets ``("sample",
        HeapSample)`` and ``("end", end_time)``. With ``on_record``
        None, ``on_other`` gets every frame raw as ``(frame_type,
        payload)``. Either way STRING frames grow :attr:`strings` and
        the END frame sets the end state. A malformed frame raises
        :class:`ProfileError`.
        """
        buf = self._buf
        buf += chunk
        if not self._header_done and not self._parse_header():
            return
        strings = self.strings
        tails = self._tails
        decode = on_record is not None
        n = len(buf)
        data = b""
        pos = 0
        frame_type = 0
        try:
            while True:
                start = pos + 2
                if start > n:
                    break
                frame_type = buf[pos]
                length = buf[pos + 1]
                if length > 0x7F:
                    try:
                        length, start = _read_uvarint(buf, pos + 1)
                    except IndexError:  # the length varint is still arriving
                        break
                end = start + length
                if end > n:
                    break
                if not data:
                    # One copy per scan, made at the first complete
                    # frame, so a frame still arriving is not copied on
                    # every chunk. Slices of bytes are the payloads and
                    # the decode cache's keys.
                    data = bytes(buf)
                if frame_type == FRAME_RECORD:
                    if decode:
                        on_record(_decode_record_at(data, start, end, strings, tails))
                    else:
                        on_other(frame_type, data[start:end])
                elif frame_type == FRAME_STRING:
                    payload = data[start:end]
                    strings.append(payload.decode("utf-8"))
                    if not decode:
                        on_other(frame_type, payload)
                elif frame_type == FRAME_SAMPLE:
                    if decode:
                        on_other("sample", HeapSample(*decode_sample(data, start, end)))
                    else:
                        on_other(frame_type, data[start:end])
                elif frame_type == FRAME_END:
                    payload = data[start:end]
                    self.end_time, self.declared_count, self.finalizer_errors = (
                        decode_end(payload)
                    )
                    self.est_objects, self.est_bytes = decode_end_totals(payload)
                    self.ended = True
                    if decode:
                        on_other("end", self.end_time)
                    else:
                        on_other(frame_type, payload)
                else:
                    raise ProfileError(
                        f"{self.source}: unknown v2 frame type 0x{frame_type:02x}"
                        f" at byte {self._base + pos}"
                    )
                pos = end
        except _CORRUPT as exc:
            raise ProfileError(
                f"{self.source}: corrupt v2 frame (type 0x{frame_type:02x})"
                f" at byte {self._base + pos}: {exc}"
            ) from exc
        finally:
            if pos:
                del buf[:pos]
                self._base += pos

    def _parse_header(self) -> bool:
        buf = self._buf
        if len(buf) < len(MAGIC) + 1:
            return False
        if bytes(buf[: len(MAGIC)]) != MAGIC:
            raise ProfileError(f"{self.source}: not a v2 drag log (bad magic)")
        version = buf[len(MAGIC)]
        if version != VERSION:
            raise ProfileError(f"{self.source}: unsupported v2 version {version}")
        try:
            length, pos = _read_uvarint(buf, len(MAGIC) + 1)
        except IndexError:
            return False
        if len(buf) < pos + length:
            return False
        try:
            header = json.loads(bytes(buf[pos : pos + length]).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors
            raise ProfileError(f"{self.source}: bad v2 header: {exc}") from exc
        metadata = header.get("metadata") if isinstance(header, dict) else None
        if not isinstance(header, dict) or not isinstance(metadata or {}, dict):
            raise ProfileError(f"{self.source}: bad v2 header: not a JSON object")
        self.metadata = metadata or {}
        del self._buf[: pos + length]
        self._base += pos + length
        self._header_done = True
        return True


def _scan_file(path: Union[str, Path], strict: bool, on_record, on_other) -> Iterator[FrameParser]:
    """Feed a log file through one parser chunk by chunk, yielding the
    parser after each chunk; checks the header and (``strict``) the END
    frame once the file is exhausted."""
    parser = FrameParser(source=str(path))
    with open(path, "rb") as f:
        while True:
            chunk = f.read(1 << 16)
            if not chunk:
                break
            parser._scan(chunk, on_record, on_other)
            yield parser
    if not parser._header_done:
        raise ProfileError(f"{path}: truncated v2 header")
    if strict and (parser.pending_bytes or not parser.ended):
        raise ProfileError(
            f"{path}: truncated v2 log "
            f"({parser.pending_bytes} trailing bytes, "
            f"END frame {'missing' if not parser.ended else 'seen'})"
        )
    yield parser


def _ignore(kind, value) -> None:
    pass


def iter_v2_log(
    path: Union[str, Path], strict: bool = True
) -> Iterator[ObjectRecord]:
    """Generator over a v2 log's object records, decoded a chunk at a time."""
    records: List[ObjectRecord] = []
    for _ in _scan_file(path, strict, records.append, _ignore):
        yield from records
        records.clear()


def read_v2_log(path: Union[str, Path], strict: bool = True):
    """Read a whole v2 log into a :class:`repro.core.logfile.LoadedLog`."""
    from repro.core.logfile import LoadedLog

    records: List[ObjectRecord] = []
    samples: List = []

    def on_other(kind, value) -> None:
        if kind == "sample":
            samples.append(value)

    for parser in _scan_file(path, strict, records.append, on_other):
        pass
    return LoadedLog(
        records,
        parser.end_time,
        parser.metadata,
        samples=samples,
        finalizer_errors=parser.finalizer_errors,
        est_objects=parser.est_objects,
        est_bytes=parser.est_bytes,
    )


class V2TailReader:
    """Incremental reader for a v2 log that is still being written.

    Each :meth:`poll` reads whatever new bytes the writer has appended
    since the last poll and returns the completed events; partial
    frames stay pending until the next poll. Used by ``repro watch``.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._parser = FrameParser(source=str(path))
        self._offset = 0

    @property
    def metadata(self) -> dict:
        return self._parser.metadata

    @property
    def ended(self) -> bool:
        return self._parser.ended

    @property
    def end_time(self) -> Optional[int]:
        return self._parser.end_time

    @property
    def finalizer_errors(self) -> Optional[int]:
        return self._parser.finalizer_errors

    def poll(self) -> List[Tuple[str, object]]:
        with open(self.path, "rb") as f:
            f.seek(self._offset)
            chunk = f.read()
        self._offset += len(chunk)
        if not chunk:
            return []
        return self._parser.feed(chunk)
