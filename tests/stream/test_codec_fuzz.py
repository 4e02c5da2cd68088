"""Byte-mutation fuzzing of the log readers.

A small but complete v2 log — interned strings, nested and last-use
chains, a weighted record, heap samples, an END frame — is mutated
about two thousand ways with a fixed seed: bit flips, truncations,
inserted bytes and deleted bytes. For every mutant, ``read_log`` in
both modes must either return or raise :class:`ProfileError`; any
other exception (or a hang) is a parser bug.
"""

import random

from repro.core.logfile import read_log
from repro.core.profiler import HeapSample
from repro.errors import ProfileError
from repro.stream.codec import V2LogWriter
from tests.core.test_analyzer import make_record

MUTANTS = 2000


def _base_log(path) -> bytes:
    writer = V2LogWriter(path, metadata={"program": "fuzz.mj", "interval": 4096})
    for i in range(6):
        record = make_record(
            handle=i * 300,  # multi-byte handles
            size=16 << i,
            created=100 + i * 5000,
            last_use=0 if i % 3 == 0 else 200 + i * 5000,
            collected=90_000 + i,
            site_label=f"App.m:{i % 3}",
            nested=(f"App.m:{i % 3}", "App.main:1"),
            use_frame=None if i % 3 == 0 else "App.use:7",
        )
        if i == 4:
            record.last_use_chain = ("App.use:7", "App.main:2")
            record.weight = 3.5
        writer.write_record(record)
        if i % 2:
            writer.write_sample(HeapSample(1000 * i, 4096 + i, i))
    writer.close(end_time=123_456, finalizer_errors=1)
    return path.read_bytes()


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


def test_mutated_logs_parse_or_raise_profile_error(tmp_path):
    base = _base_log(tmp_path / "base.dlog2")
    assert len(read_log(tmp_path / "base.dlog2").records) == 6
    rng = random.Random(20011)
    path = tmp_path / "mutant.dlog2"
    outcomes = {"ok": 0, "error": 0}
    for index in range(MUTANTS):
        path.write_bytes(_mutate(base, rng))
        for strict in (True, False):
            try:
                read_log(path, strict=strict)
            except ProfileError:
                outcomes["error"] += 1
            except Exception as exc:  # pragma: no cover - the failure path
                raise AssertionError(
                    f"mutant {index} (strict={strict}) raised {exc!r}"
                ) from exc
            else:
                outcomes["ok"] += 1
    # The mutants exercise both outcomes, not just one of them.
    assert outcomes["ok"] > 100 and outcomes["error"] > 100, outcomes
