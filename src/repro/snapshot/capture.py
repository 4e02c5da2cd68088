"""Heap snapshot capture at deep-GC safepoints.

The capture pass runs right after a deep GC — the only moments the
heap is exactly its reachable set (§2.1.1's collect-finalize-collect
makes even finalizable garbage gone) — and walks roots + heap with an
explicit worklist, MoarVM-style: every object gets a dense node index
on first sight, edges record the *reference that holds it* (field
name, array slot, or labeled root), and node 0 is a synthetic
super-root so dominator analysis has a single entry.

Capture only reads the heap. It never allocates VM objects, never
advances the byte clock, and never touches trailers, so a profile with
snapshots enabled is bit-identical to one without (the overhead bench
holds the instr/sec cost ≤10% on db).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.runtime.objects import ArrayObject, HeapObject, Instance
from repro.snapshot.codec import (
    FLAG_EXCLUDED,
    FLAG_SYNTHETIC,
    HeapSnapshot,
    SnapshotNode,
    SnapshotWriter,
)

#: Edge label for array-element references (one table entry per file,
#: not one per index — capture stays O(edges), not O(distinct labels)).
ARRAY_EDGE_LABEL = "[]"

ROOT_TYPE = "<root>"


def _iter_labeled_roots(interp) -> Iterator[Tuple[str, HeapObject]]:
    """The GC root set with provenance labels — the same sources (and
    the same liveness gating) as ``Interpreter.iter_roots`` plus the
    collector's temp roots and finalize queue, i.e. everything the mark
    phase starts from."""
    for frame in interp.frames:
        label = f"local {frame.method.qualified_name}"
        if not interp.liveness_roots or frame.method.is_native:
            for value in frame.iter_refs():
                yield label, value
            continue
        live = interp._method_liveness(frame.method)
        live_slots = live.live_slots_at(frame.pc)
        keep_this = 0 if frame.method.is_static else 1
        for slot, value in enumerate(frame.locals):
            if isinstance(value, HeapObject) and (slot < keep_this or slot in live_slots):
                yield label, value
        for value in frame.stack:
            if isinstance(value, HeapObject):
                yield label, value
    for cls_name, values in interp.statics.items():
        for field, value in values.items():
            if isinstance(value, HeapObject):
                yield f"static {cls_name}.{field}", value
    for value in interp.heap.interned.values():
        yield "interned", value
    for value in interp.heap.temp_roots:
        yield "temp", value
    for value in getattr(interp.collector, "finalize_queue", ()):
        yield "finalize-queue", value


def capture_snapshot(interp, reason: str = "deep-gc") -> HeapSnapshot:
    """Walk the heap of ``interp`` into a :class:`HeapSnapshot`."""
    def site_of(obj: HeapObject) -> Optional[str]:
        trailer = obj.trailer
        if trailer is None or trailer.context.site is None:
            return None
        return trailer.context.label

    snapshot = HeapSnapshot(interp.heap.clock, reason)
    root = SnapshotNode(ROOT_TYPE, None, 0, FLAG_SYNTHETIC)
    snapshot.nodes.append(root)
    index: Dict[int, int] = {}  # object handle -> node index
    worklist: List[HeapObject] = []

    def visit(obj: HeapObject) -> int:
        node_index = index.get(obj.handle)
        if node_index is None:
            node_index = index[obj.handle] = len(snapshot.nodes)
            snapshot.nodes.append(
                SnapshotNode(
                    obj.type_name(),
                    site_of(obj),
                    obj.size,
                    FLAG_EXCLUDED if obj.excluded else 0,
                )
            )
            worklist.append(obj)
        return node_index

    seen_roots = set()
    for label, obj in _iter_labeled_roots(interp):
        key = (label, obj.handle)
        if key in seen_roots:
            continue
        seen_roots.add(key)
        root.edges.append((visit(obj), label))

    while worklist:
        obj = worklist.pop()
        node = snapshot.nodes[index[obj.handle]]
        if isinstance(obj, Instance):
            for field, value in obj.fields.items():
                if isinstance(value, HeapObject):
                    node.edges.append((visit(value), field))
        elif isinstance(obj, ArrayObject):
            if obj.elem_desc == "ref":
                for value in obj.data:
                    if isinstance(value, HeapObject):
                        node.edges.append((visit(value), ARRAY_EDGE_LABEL))
    return snapshot


class SnapshotRecorder:
    """The profiler's snapshot hook: captures at each deep-GC safepoint
    and streams to a :class:`SnapshotWriter` or, without one, buffers in
    memory.

    Pass one as ``snapshotter=`` to :class:`~repro.core.profiler
    .HeapProfiler` (or through ``profile_program``): ``capture`` fires
    right after the interval deep GC in ``take_sample`` and after the
    final deep GC in ``on_program_end``. ``telemetry`` (or None, the
    zero-cost convention) wraps each capture in a ``snapshot.capture``
    span and feeds the ``repro_snapshot_*`` metrics.
    """

    def __init__(
        self,
        out: Union[str, "SnapshotWriter", None] = None,
        metadata: Optional[dict] = None,
        telemetry=None,
    ) -> None:
        if out is None or isinstance(out, SnapshotWriter):
            self.writer: Optional[SnapshotWriter] = out
            self._owns_writer = False
        else:
            self.writer = SnapshotWriter(out, metadata=metadata)
            self._owns_writer = True
        # The profiler's sink/buffer convention: with a writer attached,
        # snapshots stream out; without one they are kept in memory.
        self.telemetry = telemetry
        self.snapshots: List[HeapSnapshot] = []
        self.capture_count = 0
        self.node_count = 0
        self.edge_count = 0

    def capture(self, interp, reason: str = "deep-gc") -> HeapSnapshot:
        telemetry = self.telemetry
        if telemetry is None:
            snapshot = capture_snapshot(interp, reason)
        else:
            started = perf_counter()
            with telemetry.span("snapshot.capture", category="snapshot", reason=reason):
                snapshot = capture_snapshot(interp, reason)
            telemetry.record_snapshot(
                snapshot.node_count, snapshot.edge_count, perf_counter() - started
            )
        self.capture_count += 1
        self.node_count += snapshot.node_count
        self.edge_count += snapshot.edge_count
        if self.writer is None:
            self.snapshots.append(snapshot)
        else:
            self.writer.write(snapshot)
        return snapshot

    def close(self) -> None:
        if self._owns_writer and self.writer is not None:
            self.writer.close()

    @property
    def latest(self) -> Optional[HeapSnapshot]:
        return self.snapshots[-1] if self.snapshots else None
