"""Byte-mutation fuzzing of the RHS1 snapshot reader.

A small but complete two-snapshot file — a shared string table, absent
site labels, excluded and synthetic flags, array and multi-edges, an
END frame — is mutated a few thousand ways with a fixed seed: bit
flips, truncations, inserted bytes and deleted bytes. For every mutant,
``read_snapshots`` in both modes must either return snapshots that all
analyze (dominators, retained sizes, the text report) or raise
:class:`SnapshotError`; any other exception is a reader bug.
"""

import random

from repro.snapshot import (
    HeapSnapshot,
    SnapshotError,
    SnapshotNode,
    analyze_snapshot,
    read_snapshots,
    snapshot_report,
    write_snapshots,
)
from repro.snapshot.codec import FLAG_EXCLUDED, FLAG_SYNTHETIC

MUTANTS = 3000


def _snapshot(clock, reason, count, seed):
    rng = random.Random(seed)
    snapshot = HeapSnapshot(clock, reason)
    snapshot.nodes.append(SnapshotNode("<root>", None, 0, FLAG_SYNTHETIC))
    for i in range(1, count):
        snapshot.nodes.append(
            SnapshotNode(
                ("Vector", "Object[]", "DbRecord", "String")[i % 4],
                None if i % 5 == 0 else f"App.m:{i % 3}",
                16 << (i % 4),
                FLAG_EXCLUDED if i % 7 == 0 else 0,
            )
        )
        # a tree edge keeps every node reachable; extra edges add
        # sharing, cycles and repeated labels
        parent = rng.randrange(i)
        snapshot.nodes[parent].edges.append((i, "[]" if parent % 2 else "data"))
    for _ in range(count // 3):
        src, dst = rng.randrange(count), rng.randrange(1, count)
        snapshot.nodes[src].edges.append((dst, None if src % 3 else "next"))
    return snapshot


def _base_file(path) -> bytes:
    write_snapshots(
        path,
        [_snapshot(4096, "interval", 18, 1), _snapshot(8192, "end", 12, 2)],
        metadata={"program": "fuzz.mj"},
    )
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


def test_base_file_parses_and_analyzes(tmp_path):
    _base_file(tmp_path / "base.rhs")
    loaded = read_snapshots(tmp_path / "base.rhs", strict=True)
    assert loaded.complete and [s.node_count for s in loaded.snapshots] == [18, 12]
    assert analyze_snapshot(loaded.snapshots[0]).total_reachable_bytes > 0


def test_mutated_snapshots_parse_and_analyze_or_raise_snapshot_error(tmp_path):
    base = _base_file(tmp_path / "base.rhs")
    rng = random.Random(20013)
    path = tmp_path / "mutant.rhs"
    outcomes = {"ok": 0, "error": 0}
    for index in range(MUTANTS):
        path.write_bytes(_mutate(base, rng))
        for strict in (True, False):
            try:
                loaded = read_snapshots(path, strict=strict)
                for snapshot in loaded.snapshots:
                    analyze_snapshot(snapshot)
                snapshot_report(loaded, top=3)
            except SnapshotError as exc:
                assert str(path) in str(exc), exc
                outcomes["error"] += 1
            except Exception as exc:  # pragma: no cover - the failure path
                raise AssertionError(
                    f"mutant {index} (strict={strict}) raised {exc!r}"
                ) from exc
            else:
                outcomes["ok"] += 1
    # The mutants exercise both outcomes, not just one of them.
    assert outcomes["ok"] > 100 and outcomes["error"] > 100, outcomes


def test_bare_magic_is_a_snapshot_error(tmp_path):
    path = tmp_path / "magic.rhs"
    path.write_bytes(b"RHS1")
    for strict in (True, False):
        try:
            read_snapshots(path, strict=strict)
        except SnapshotError as exc:
            assert "offset 4" in str(exc), exc
        else:  # pragma: no cover - the failure path
            raise AssertionError("a bare magic parsed")
