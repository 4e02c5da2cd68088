"""A two-generation copying-free generational collector.

Table 4 of the paper reports runtime under Sun HotSpot Client 1.3
because "it uses a generational GC. A generational GC delays the
collection of some unreachable objects in order to get better
performance. Thus, the potential benefit for saving drag time for an
object is decreased." This collector reproduces those dynamics:

* new objects are *young*; a minor collection scans only roots, the
  remembered set (old objects into which a reference to a young object
  was stored — maintained by a write barrier), and the young object
  graph;
* young survivors age and are promoted to the old generation;
* a major collection is a full mark-sweep (used under memory pressure
  and for the profiler's deep GCs).

Minor collections therefore do work proportional to the young
generation + remembered set, not the whole heap — which is exactly why
eliminating allocations (the paper's rewrites) reduces GC time.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, List

from repro.bytecode.program import CompiledProgram
from repro.runtime.gc import MarkSweepCollector
from repro.runtime.heap import Heap
from repro.runtime.objects import HeapObject, Instance


class GenerationalCollector(MarkSweepCollector):
    """Young/old collector with a remembered set. Drop-in replacement
    for :class:`MarkSweepCollector` (pass as ``collector_factory``)."""

    def __init__(
        self,
        heap: Heap,
        program: CompiledProgram,
        young_threshold: int = 256 * 1024,
        promote_age: int = 2,
    ) -> None:
        super().__init__(heap, program)
        self.young_threshold = young_threshold
        self.promote_age = promote_age
        self.young: dict = {}  # handle -> age
        self.young_bytes = 0
        self.remembered: set = set()  # old objects that may point to young
        heap.on_new_object = self._note_new
        heap.barrier = self._write_barrier

    # -- heap hooks -----------------------------------------------------------

    def _note_new(self, obj: HeapObject) -> None:
        self.young[obj.handle] = 0
        self.young_bytes += obj.size

    def _write_barrier(self, container: HeapObject, value) -> None:
        if (
            isinstance(value, HeapObject)
            and container.handle not in self.young
            and value.handle in self.young
        ):
            self.remembered.add(container)

    def is_young(self, obj: HeapObject) -> bool:
        return obj.handle in self.young

    # -- collections ---------------------------------------------------------

    def collect(self, roots: Iterable[HeapObject], force_major: bool = False) -> int:
        """Policy entry point: minor unless forced or the young
        generation is empty relative to pressure."""
        if force_major:
            return self.collect_major(roots)
        return self.collect_minor(roots)

    def should_collect_minor(self) -> bool:
        return self.young_bytes >= self.young_threshold

    def collect_minor(self, roots: Iterable[HeapObject]) -> int:
        heap = self.heap
        heap.stats.gc_runs += 1
        heap.stats.minor_gc_runs += 1
        started = perf_counter()
        young = self.young
        marked: set = set()
        stack: List[HeapObject] = []

        def visit(obj) -> None:
            if (
                isinstance(obj, HeapObject)
                and obj.handle in young
                and obj.handle not in marked
            ):
                marked.add(obj.handle)
                stack.append(obj)

        for obj in roots:
            visit(obj)
        for obj in heap.temp_roots:
            visit(obj)
        for obj in self.finalize_queue:
            visit(obj)
        for old_obj in self.remembered:
            if old_obj.handle in heap.objects:  # may have died in a major GC
                for ref in old_obj.iter_references():
                    visit(ref)
        while stack:
            obj = stack.pop()
            for ref in obj.iter_references():
                visit(ref)
        heap.stats.objects_marked += len(marked)

        dead = [
            heap.objects[h] for h in list(young) if h not in marked and h in heap.objects
        ]
        # Finalizable young objects are resurrected, like the full GC.
        finalizable = self._finalizable
        for obj in dead:
            if (
                obj.finalize_scheduled
                or obj.handle in marked
                or obj.__class__ is not Instance
            ):
                continue
            known = finalizable.get(obj.class_name)
            if known or (known is None and self.has_finalizer(obj)):
                obj.finalize_scheduled = True
                self.finalize_queue.append(obj)
                marked.add(obj.handle)
                stack.append(obj)
                while stack:
                    keep = stack.pop()
                    for ref in keep.iter_references():
                        visit(ref)
        dead = [obj for obj in dead if obj.handle not in marked]
        for obj in dead:
            del young[obj.handle]
        reclaimed = heap.reclaim(dead)
        self.young_bytes -= reclaimed
        # Age and promote survivors.
        promoted: List[HeapObject] = []
        for handle in list(young):
            young[handle] += 1
            if young[handle] >= self.promote_age:
                obj = heap.objects[handle]
                self.young_bytes -= obj.size
                del young[handle]
                promoted.append(obj)
        for obj in promoted:
            if any(ref.handle in young for ref in obj.iter_references()):
                self.remembered.add(obj)
        pause = perf_counter() - started
        heap.stats.gc_pause_seconds += pause
        if heap.telemetry is not None:
            heap.telemetry.record_gc(
                pause, reclaimed, heap.live_bytes, heap.object_count(), kind="minor"
            )
        return reclaimed

    def collect_major(self, roots: Iterable[HeapObject]) -> int:
        heap = self.heap
        heap.stats.major_gc_runs += 1
        reclaimed = super().collect(roots)
        # Rebuild young bookkeeping: reclaimed young objects drop out.
        self.young = {h: age for h, age in self.young.items() if h in heap.objects}
        self.young_bytes = sum(heap.objects[h].size for h in self.young)
        self.remembered = {o for o in self.remembered if o.handle in heap.objects}
        return reclaimed
