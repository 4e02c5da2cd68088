"""Reachability-based mark-sweep collector with finalization support.

The paper's *deep GC* (§2.1.1) is: (1) GC, (2) run finalizers for all
objects waiting for finalization, (3) GC. The collector implements steps
1 and 3 plus the discovery of finalizable objects; actually *running*
finalizers requires executing mini-Java code, so the interpreter drives
the full deep-GC cycle (see ``Interpreter.deep_gc``).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterable, List

from repro.bytecode.program import CompiledProgram
from repro.runtime.heap import Heap
from repro.runtime.objects import HeapObject, Instance


class MarkSweepCollector:
    """Classic stop-the-world mark-sweep over the whole heap."""

    def __init__(self, heap: Heap, program: CompiledProgram) -> None:
        self.heap = heap
        self.program = program
        # Objects discovered unreachable whose finalize() has not run yet.
        self.finalize_queue: List[Instance] = []
        # Class name -> whether it has a (non-native) finalize(); the
        # class table never changes during a run.
        self._finalizable: Dict[str, bool] = {}

    def has_finalizer(self, obj: HeapObject) -> bool:
        if not isinstance(obj, Instance):
            return False
        name = obj.class_name
        known = self._finalizable.get(name)
        if known is None:
            method = self.program.lookup_method(name, "finalize")
            known = self._finalizable[name] = (
                method is not None and not method.is_native
            )
        return known

    def mark(self, roots: Iterable[HeapObject]) -> int:
        """Mark all objects reachable from ``roots``; return mark count.
        Walks fields and reference-array elements in place: no
        ``iter_references`` generator per object."""
        stack: List[HeapObject] = []
        for obj in roots:
            if isinstance(obj, HeapObject) and not obj.marked:
                obj.marked = True
                stack.append(obj)
        marked = len(stack)
        pop = stack.pop
        push = stack.append
        while stack:
            obj = pop()
            if obj.__class__ is Instance:
                refs = obj.fields.values()
            elif obj.elem_desc == "ref":
                refs = obj.data
            else:
                continue
            for ref in refs:
                if isinstance(ref, HeapObject) and not ref.marked:
                    ref.marked = True
                    marked += 1
                    push(ref)
        return marked

    def collect(self, roots: Iterable[HeapObject], force_major: bool = False) -> int:
        """One GC: mark from roots, sweep unmarked, queue finalizables.

        Returns the number of bytes reclaimed. Objects with a pending
        finalizer are resurrected onto the finalize queue instead of
        being reclaimed (and are treated as roots until finalized).
        ``force_major`` is accepted for interface compatibility with the
        generational collector; every mark-sweep collection is major.
        """
        heap = self.heap
        heap.stats.gc_runs += 1
        started = perf_counter()
        # Finalize-queue members must survive until their finalizer runs.
        marked = self.mark(list(roots) + list(self.finalize_queue) + heap.temp_roots)
        heap.stats.objects_marked += marked
        dead = [obj for obj in heap.objects.values() if not obj.marked]
        # Resurrect finalizable objects first so that anything they keep
        # alive is excluded from this cycle's sweep.
        finalizable = self._finalizable
        for obj in dead:
            if obj.marked or obj.finalize_scheduled or obj.__class__ is not Instance:
                continue
            known = finalizable.get(obj.class_name)
            if known or (known is None and self.has_finalizer(obj)):
                obj.finalize_scheduled = True
                self.finalize_queue.append(obj)
                self.mark([obj])
        reclaimed = heap.reclaim([obj for obj in dead if not obj.marked])
        # Marks are cleared after the sweep, not during the dead scan: a
        # resurrected object's mark walk above must still see this
        # cycle's live objects as marked.
        for obj in heap.objects.values():
            obj.marked = False
        pause = perf_counter() - started
        heap.stats.gc_pause_seconds += pause
        if heap.telemetry is not None:
            heap.telemetry.record_gc(
                pause, reclaimed, heap.live_bytes, heap.object_count(), kind="major"
            )
        return reclaimed
