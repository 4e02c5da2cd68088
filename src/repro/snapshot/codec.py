"""The compact heap-snapshot codec: length-prefixed binary frames.

Layout (modeled on the v2 drag-log codec, and on MoarVM's heap
snapshot format — one shared string table, worklist-ordered
collectables)::

    MAGIC "RHS1"  VERSION(1 byte)  uvarint(len)  header-JSON
    frame*                 # type byte, uvarint(len), payload
    [END frame]            # snapshot count, at close

Frame types: ``STRING`` interns one UTF-8 string into the *file-wide*
table (ids sequential in order of appearance — type names, site
labels, field labels and root labels repeat heavily across the
snapshots of one run, so later snapshots are mostly varint-packed
integers); ``SNAP`` opens one snapshot (byte-clock time + capture
reason); ``NODE`` is one heap node with its out-edges inline (edges
name *forward* node indices — the capture pass finishes its worklist
traversal before serializing, so indices are dense and final);
``ENDSNAP`` closes a snapshot with node/edge/byte totals (the reader's
consistency check); ``END`` closes the file.

All integers are unsigned LEB128 varints. Every frame is
length-prefixed, so a reader can detect a truncated tail (crashed or
still-writing run) and, in non-strict mode, keep every snapshot whose
``ENDSNAP`` frame arrived and simply drop the torn one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Dict, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.stream.codec import _read_uvarint, _write_uvarint

MAGIC = b"RHS1"
VERSION = 1

FRAME_STRING = 0x01
FRAME_SNAP = 0x02
FRAME_NODE = 0x03
FRAME_ENDSNAP = 0x04
FRAME_END = 0x05

# Node flag bits.
FLAG_EXCLUDED = 0x01   # Class objects / interned constant-pool strings
FLAG_SYNTHETIC = 0x02  # the super-root (index 0), not a heap object


class SnapshotError(ReproError):
    """Corrupt or truncated snapshot file (strict mode only)."""


class SnapshotNode:
    """One heap node: identity-free, index-addressed within a snapshot.

    ``edges`` are ``(dst_index, label)`` pairs — label is a field name
    for instance references, ``"[]"`` for array elements, and a root
    kind (``"static Cls.field"``, ``"local Cls.method"``, ...) on the
    super-root's outgoing edges.
    """

    __slots__ = ("type_name", "site_label", "size", "flags", "edges")

    def __init__(
        self,
        type_name: str,
        site_label: Optional[str],
        size: int,
        flags: int = 0,
        edges: Optional[List[Tuple[int, Optional[str]]]] = None,
    ) -> None:
        self.type_name = type_name
        self.site_label = site_label
        self.size = size
        self.flags = flags
        self.edges: List[Tuple[int, Optional[str]]] = edges if edges is not None else []

    @property
    def excluded(self) -> bool:
        return bool(self.flags & FLAG_EXCLUDED)

    @property
    def synthetic(self) -> bool:
        return bool(self.flags & FLAG_SYNTHETIC)

    def __repr__(self) -> str:
        return (
            f"<node {self.type_name} size={self.size} "
            f"edges={len(self.edges)} site={self.site_label}>"
        )


class HeapSnapshot:
    """One captured heap graph. ``nodes[0]`` is always the synthetic
    super-root whose labeled edges are the GC roots."""

    __slots__ = ("clock", "reason", "nodes")

    def __init__(self, clock: int, reason: str, nodes: Optional[List[SnapshotNode]] = None) -> None:
        self.clock = clock
        self.reason = reason
        self.nodes: List[SnapshotNode] = nodes if nodes is not None else []

    @property
    def root(self) -> SnapshotNode:
        return self.nodes[0]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return sum([len(n.edges) for n in self.nodes])

    @property
    def total_bytes(self) -> int:
        """Reachable heap bytes (the super-root weighs nothing)."""
        return sum(n.size for n in self.nodes)

    def __repr__(self) -> str:
        return (
            f"<snapshot t={self.clock} reason={self.reason} "
            f"nodes={self.node_count} edges={self.edge_count}>"
        )


class SnapshotWriter:
    """Stream snapshots into ``out`` (a path or binary file object).

    The string table is file-scoped and written lazily: an id is
    emitted the first time a string appears, so re-serializing a parsed
    file reproduces the original bytes exactly (the round-trip
    bit-identity the tests pin).
    """

    def __init__(self, out: Union[str, Path, IO[bytes]], metadata: Optional[dict] = None) -> None:
        if hasattr(out, "write"):
            self._file: IO[bytes] = out  # type: ignore[assignment]
            self._owns = False
        else:
            self._file = open(out, "wb")
            self._owns = True
        self.metadata = metadata
        self.count = 0
        self._strings: Dict[str, int] = {}
        self._closed = False
        header = {"format": "repro-heap-snapshot", "version": VERSION}
        if metadata:
            header["metadata"] = metadata
        payload = json.dumps(header).encode("utf-8")
        prefix = bytearray()
        prefix += MAGIC
        prefix.append(VERSION)
        _write_uvarint(prefix, len(payload))
        self._file.write(bytes(prefix) + payload)

    # -- frame plumbing ---------------------------------------------------

    def _frame(self, frame_type: int, payload: bytes) -> None:
        buf = bytearray()
        buf.append(frame_type)
        _write_uvarint(buf, len(payload))
        self._file.write(bytes(buf) + payload)

    def _intern(self, value: str) -> int:
        index = self._strings.get(value)
        if index is None:
            index = self._strings[value] = len(self._strings)
            self._frame(FRAME_STRING, value.encode("utf-8"))
        return index

    def _opt(self, value: Optional[str]) -> int:
        """Optional string -> id+1 (0 means absent)."""
        return 0 if value is None else self._intern(value) + 1

    # -- public API -------------------------------------------------------

    def write(self, snapshot: HeapSnapshot) -> None:
        head = bytearray()
        _write_uvarint(head, snapshot.clock)
        _write_uvarint(head, self._intern(snapshot.reason))
        self._frame(FRAME_SNAP, bytes(head))
        edges = 0
        for node in snapshot.nodes:
            buf = bytearray()
            _write_uvarint(buf, self._intern(node.type_name))
            _write_uvarint(buf, self._opt(node.site_label))
            _write_uvarint(buf, node.size)
            _write_uvarint(buf, node.flags)
            _write_uvarint(buf, len(node.edges))
            for dst, label in node.edges:
                _write_uvarint(buf, dst)
                _write_uvarint(buf, self._opt(label))
            edges += len(node.edges)
            self._frame(FRAME_NODE, bytes(buf))
        tail = bytearray()
        _write_uvarint(tail, snapshot.node_count)
        _write_uvarint(tail, edges)
        _write_uvarint(tail, snapshot.total_bytes)
        self._frame(FRAME_ENDSNAP, bytes(tail))
        self.count += 1

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        buf = bytearray()
        _write_uvarint(buf, self.count)
        self._frame(FRAME_END, bytes(buf))
        if self._owns:
            self._file.close()

    def __enter__(self) -> "SnapshotWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SnapshotFile:
    """A parsed snapshot file."""

    __slots__ = ("header", "snapshots", "truncated", "complete")

    def __init__(self, header: dict, snapshots: List[HeapSnapshot], truncated: bool, complete: bool) -> None:
        self.header = header
        self.snapshots = snapshots
        self.truncated = truncated
        self.complete = complete  # END frame seen with a matching count

    @property
    def metadata(self) -> dict:
        return self.header.get("metadata", {})

    @property
    def latest(self) -> Optional[HeapSnapshot]:
        return self.snapshots[-1] if self.snapshots else None


def write_snapshots(
    path: Union[str, Path],
    snapshots: List[HeapSnapshot],
    metadata: Optional[dict] = None,
) -> None:
    with SnapshotWriter(path, metadata=metadata) as writer:
        for snapshot in snapshots:
            writer.write(snapshot)


def read_snapshots(path: Union[str, Path], strict: bool = False) -> SnapshotFile:
    """Parse a snapshot file.

    ``strict=False`` (the default, matching the v2 log reader): a
    truncated tail — a frame running off the end of the file, a torn
    snapshot, a missing END — keeps every complete snapshot and flags
    ``truncated``; ``strict=True`` raises :class:`SnapshotError`. A
    malformed header or frame (bad UTF-8, a string id or edge target
    out of range, inconsistent totals) raises :class:`SnapshotError`
    naming the offset in both modes.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[: len(MAGIC)] != MAGIC:
        raise SnapshotError(f"{path}: not a heap snapshot file (bad magic)")
    if len(data) == len(MAGIC):
        raise SnapshotError(f"{path}: truncated header at offset {len(MAGIC)}")
    version = data[len(MAGIC)]
    if version != VERSION:
        raise SnapshotError(f"{path}: unsupported snapshot version {version}")
    pos = len(MAGIC) + 1
    try:
        header_len, pos = _read_uvarint(data, pos)
        header = json.loads(data[pos : pos + header_len].decode("utf-8"))
        pos += header_len
    except (IndexError, ValueError) as exc:
        raise SnapshotError(f"{path}: corrupt header at offset {pos}: {exc}")
    if not isinstance(header, dict) or not isinstance(header.get("metadata", {}), dict):
        raise SnapshotError(f"{path}: corrupt header at offset {len(MAGIC) + 1}")

    strings: List[str] = []
    snapshots: List[HeapSnapshot] = []
    current: Optional[HeapSnapshot] = None
    truncated = False
    complete = False

    def opt(index: int) -> Optional[str]:
        return None if index == 0 else strings[index - 1]

    while pos < len(data):
        start = pos
        frame_type = data[pos]
        try:
            length, pos = _read_uvarint(data, pos + 1)
        except IndexError:
            length = len(data)  # the length prefix itself is cut off
        if pos + length > len(data):
            # The frame runs off the end of the file: the writer died
            # mid-frame. Keep the complete snapshots.
            if strict:
                raise SnapshotError(
                    f"{path}: truncated snapshot file (frame at offset {start})"
                )
            truncated = True
            break
        payload = data[pos : pos + length]
        pos += length
        try:
            if frame_type == FRAME_STRING:
                strings.append(payload.decode("utf-8"))
            elif frame_type == FRAME_SNAP:
                clock, p = _read_uvarint(payload, 0)
                reason_id, p = _read_uvarint(payload, p)
                current = HeapSnapshot(clock, strings[reason_id])
            elif frame_type == FRAME_NODE:
                if current is None:
                    raise SnapshotError(
                        f"{path}: NODE frame outside a snapshot at offset {start}"
                    )
                type_id, p = _read_uvarint(payload, 0)
                site_id, p = _read_uvarint(payload, p)
                size, p = _read_uvarint(payload, p)
                flags, p = _read_uvarint(payload, p)
                n_edges, p = _read_uvarint(payload, p)
                edges: List[Tuple[int, Optional[str]]] = []
                for _ in range(n_edges):
                    dst, p = _read_uvarint(payload, p)
                    label_id, p = _read_uvarint(payload, p)
                    edges.append((dst, opt(label_id)))
                current.nodes.append(
                    SnapshotNode(strings[type_id], opt(site_id), size, flags, edges)
                )
            elif frame_type == FRAME_ENDSNAP:
                if current is None:
                    raise SnapshotError(
                        f"{path}: ENDSNAP frame outside a snapshot at offset {start}"
                    )
                n_nodes, p = _read_uvarint(payload, 0)
                n_edges, p = _read_uvarint(payload, p)
                n_bytes, p = _read_uvarint(payload, p)
                if (
                    n_nodes != current.node_count
                    or n_edges != current.edge_count
                    or n_bytes != current.total_bytes
                ):
                    raise SnapshotError(
                        f"{path}: snapshot totals mismatch at offset {start} "
                        f"(declared {n_nodes}/{n_edges}/{n_bytes}B, "
                        f"parsed {current.node_count}/{current.edge_count}/"
                        f"{current.total_bytes}B)"
                    )
                if not n_nodes or any(
                    dst >= n_nodes for node in current.nodes for dst, _ in node.edges
                ):
                    raise SnapshotError(
                        f"{path}: snapshot closed at offset {start} has no root "
                        "or an edge past its last node"
                    )
                snapshots.append(current)
                current = None
            elif frame_type == FRAME_END:
                declared, _p = _read_uvarint(payload, 0)
                if declared != len(snapshots):
                    raise SnapshotError(
                        f"{path}: END at offset {start} declares {declared} "
                        f"snapshot(s), parsed {len(snapshots)}"
                    )
                complete = True
                break
            else:
                raise SnapshotError(
                    f"{path}: unknown frame type 0x{frame_type:02x} at offset {start}"
                )
        except (IndexError, UnicodeDecodeError) as exc:
            # The frame arrived whole, so running off its payload or
            # naming a string that was never interned is corruption.
            raise SnapshotError(f"{path}: corrupt frame at offset {start}: {exc}")
    if current is not None:
        # SNAP opened but ENDSNAP never arrived — a torn snapshot.
        if strict:
            raise SnapshotError(f"{path}: torn snapshot (no ENDSNAP by offset {pos})")
        truncated = True
    if not complete:
        if strict:
            raise SnapshotError(f"{path}: missing END frame (file ends at offset {pos})")
        truncated = True
    return SnapshotFile(header, snapshots, truncated, complete)
