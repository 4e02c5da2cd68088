"""The RECORD decoder as it was before the decode cache: the oracle of
``tests/stream/test_decode_cache.py``.

One ``_read_uvarint`` call per field, no cache. Kept verbatim, flag
values and varint reader included, so a change to the codec module
cannot change the oracle with it.
"""

import struct
from typing import List, Tuple

from repro.core.trailer import ObjectRecord

_F_LIBRARY = 0x01
_F_EXCLUDED = 0x02
_F_SURVIVED = 0x04
_F_HAS_SITE = 0x08
_F_HAS_USE_FRAME = 0x10
_F_HAS_USE_CHAIN = 0x20
_F_HAS_WEIGHT = 0x40

_unpack_double = struct.Struct("<d").unpack_from


def _read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
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


def _read_strings(buf, pos: int, strings: List[str]) -> Tuple[Tuple[str, ...], int]:
    read = _read_uvarint
    count, pos = read(buf, pos)
    if count > len(buf) - pos:  # every id takes at least one byte
        raise IndexError(f"string list of {count} ids overruns the buffer")
    out = []
    for _ in range(count):
        sid, pos = read(buf, pos)
        out.append(strings[sid])
    return tuple(out), pos


def decode_record_at(buf, pos: int, end: int, strings: List[str]) -> ObjectRecord:
    read = _read_uvarint
    flags = buf[pos]
    handle, pos = read(buf, pos + 1)
    size, pos = read(buf, pos)
    created, pos = read(buf, pos)
    first_use, pos = read(buf, pos)
    last_use, pos = read(buf, pos)
    collected, pos = read(buf, pos)
    alloc_site = None
    if flags & _F_HAS_SITE:
        alloc_site, pos = read(buf, pos)
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
    return ObjectRecord(
        handle, strings[type_id], size, created, last_use, collected,
        alloc_site, strings[label_id], strings[kind_id],
        bool(flags & _F_LIBRARY), nested, use_frame, use_chain,
        bool(flags & _F_EXCLUDED), bool(flags & _F_SURVIVED),
        first_use, weight,
    )
