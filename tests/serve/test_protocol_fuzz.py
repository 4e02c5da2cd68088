"""Byte-mutation fuzzing of the RSV1 handshake readers.

A valid HELLO — magic, version, and a JSON frame carrying run metadata
— is mutated a couple of thousand ways with a fixed seed: bit flips,
truncations, inserted bytes and deleted bytes. Every mutant goes to
``read_hello`` over an ``asyncio.StreamReader`` (fed and closed, under
``wait_for`` so a reader that waits for bytes that never come fails
instead of hanging), and both the mutant and its JSON-frame part go to
``decode_json_frame`` and ``read_json_frame_sync``. Each call must
return a dict or raise :class:`ProtocolError`; any other exception is a
reader bug.
"""

import asyncio
import io
import random

from repro.serve.protocol import (
    HELLO_MAGIC,
    ProtocolError,
    decode_json_frame,
    encode_hello,
    read_hello,
    read_json_frame_sync,
)

MUTANTS = 2000

BASE = encode_hello(
    {"program": "Db.mj", "run": "primary", "args": ["120", "260"], "seed": 7}
)


def _mutate(data: bytes, rng: random.Random) -> bytes:
    out = bytearray(data)
    kind = rng.randrange(4)
    if kind == 0:  # flip 1-3 bits
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(out))
            out[at] ^= 1 << rng.randrange(8)
    elif kind == 1:  # truncate
        del out[rng.randrange(len(out)):]
    elif kind == 2:  # insert 1-4 random bytes
        at = rng.randrange(len(out) + 1)
        out[at:at] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 4)))
    else:  # delete a short run
        at = rng.randrange(len(out))
        del out[at:at + rng.randint(1, 4)]
    return bytes(out)


def _mutants():
    rng = random.Random(15015)
    return [_mutate(BASE, rng) for _ in range(MUTANTS)]


def _tally(outcomes, index, call):
    try:
        result = call()
    except ProtocolError:
        outcomes["error"] += 1
    except Exception as exc:  # pragma: no cover - the failure path
        raise AssertionError(f"mutant {index} raised {exc!r}") from exc
    else:
        assert isinstance(result, dict), (index, result)
        outcomes["ok"] += 1


def test_base_hello_parses():
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(BASE)
        reader.feed_eof()
        return await read_hello(reader)

    assert asyncio.run(go())["program"] == "Db.mj"


def test_mutated_hellos_return_metadata_or_raise_protocol_error():
    mutants = _mutants()
    outcomes = {"ok": 0, "error": 0}

    async def go():
        for index, data in enumerate(mutants):
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            try:
                metadata = await asyncio.wait_for(read_hello(reader), timeout=5)
            except ProtocolError:
                outcomes["error"] += 1
            except Exception as exc:  # pragma: no cover - the failure path
                raise AssertionError(f"mutant {index} raised {exc!r}") from exc
            else:
                assert isinstance(metadata, dict), (index, metadata)
                outcomes["ok"] += 1

    asyncio.run(go())
    # The mutants exercise both outcomes, not just one of them.
    assert outcomes["ok"] > 100 and outcomes["error"] > 100, outcomes


def test_mutated_json_frames_decode_or_raise_protocol_error():
    skip = len(HELLO_MAGIC) + 1  # magic + version byte
    outcomes = {"ok": 0, "error": 0}
    for index, data in enumerate(_mutants()):
        for frame in (data, data[skip:]):
            _tally(outcomes, index, lambda: decode_json_frame(frame)[0])
            _tally(outcomes, index, lambda: read_json_frame_sync(io.BytesIO(frame)))
    assert outcomes["ok"] > 100 and outcomes["error"] > 100, outcomes
