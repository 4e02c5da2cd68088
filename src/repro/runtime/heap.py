"""The simulated heap.

The heap owns the *byte-allocation clock*: time, everywhere in this
reproduction, is "bytes allocated since the beginning of program
execution" (§2.1.1). Every allocation advances the clock by the object's
size and notifies the attached profiler, which may request a deep GC at
the next safe point (instruction boundary) by raising ``gc_pending``.

Python's own memory management is irrelevant here: reachability is
defined purely by this heap's object graph and the interpreter's roots,
so drag semantics match a tracing JVM, not CPython's refcounting.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import OutOfMemory
from repro.bytecode.program import CompiledClass
from repro.runtime.objects import ArrayObject, HeapObject, Instance, default_field_values


class HeapStats:
    """Allocation/GC counters used by the runtime cost model (Table 4)."""

    __slots__ = (
        "objects_allocated",
        "bytes_allocated",
        "gc_runs",
        "objects_marked",
        "objects_swept",
        "bytes_reclaimed",
        "finalizers_run",
        "minor_gc_runs",
        "major_gc_runs",
        "gc_pause_seconds",
        "deep_gc_runs",
    )

    def __init__(self) -> None:
        self.objects_allocated = 0
        self.bytes_allocated = 0
        self.gc_runs = 0
        self.objects_marked = 0
        self.objects_swept = 0
        self.bytes_reclaimed = 0
        self.finalizers_run = 0
        self.minor_gc_runs = 0
        self.major_gc_runs = 0
        # Wall-clock time spent inside collections (stop-the-world
        # pause), and §2.1.1 deep-GC cycle count. Wall time is outside
        # the deterministic core — it never feeds the byte clock or the
        # profile — but it is what "the GC is eating my run" questions
        # need answered.
        self.gc_pause_seconds = 0.0
        self.deep_gc_runs = 0


class Heap:
    """Handle-based object store with a byte clock.

    ``profiler`` (if set) receives ``on_alloc``/``on_free`` callbacks and
    can request sampling by raising ``gc_pending``. ``max_bytes`` bounds the
    live heap; exceeding it after a forced GC raises :class:`OutOfMemory`
    (which the interpreter turns into a mini-Java OutOfMemoryError).
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        self.objects: Dict[int, HeapObject] = {}
        self.next_handle = 1
        self.clock = 0  # bytes allocated since program start
        self.live_bytes = 0
        self.max_bytes = max_bytes
        self.interned: Dict[str, Instance] = {}
        self.temp_roots: List[HeapObject] = []
        self.profiler = None  # set by Interpreter when profiling
        # Optional repro.obs.Telemetry; collectors report pause/occupancy
        # metrics through it. None keeps every GC path check-free past
        # one attribute test per collection.
        self.telemetry = None
        self.stats = HeapStats()
        # Called when an allocation would exceed max_bytes; should run a
        # synchronous full GC. Installed by the interpreter.
        self.gc_request: Optional[Callable[[], None]] = None
        # Generational-collector hooks: new-object notification, the
        # old-to-young write barrier, a poll asking whether a (minor)
        # collection is due, and the resulting ``minor_due`` bit.
        self.on_new_object: Optional[Callable[[HeapObject], None]] = None
        self.barrier: Optional[Callable[[HeapObject, object], None]] = None
        self.gc_poll: Optional[Callable[[], bool]] = None
        self.minor_due = False
        # The safepoint flag both dispatch loops test at every boundary:
        # raised when a minor collection or (by the profiler's on_alloc)
        # a deep-GC sample may be due; Interpreter._safepoint serves it.
        self.gc_pending = False

    # -- allocation ----------------------------------------------------------

    def _register(self, obj: HeapObject) -> HeapObject:
        if self.max_bytes is not None and self.live_bytes + obj.size > self.max_bytes:
            if self.gc_request is not None:
                self.temp_roots.append(obj)
                try:
                    self.gc_request()
                finally:
                    self.temp_roots.pop()
            if self.live_bytes + obj.size > self.max_bytes:
                raise OutOfMemory(
                    f"live {self.live_bytes}B + {obj.size}B exceeds {self.max_bytes}B"
                )
        self.objects[obj.handle] = obj
        self.clock += obj.size
        self.live_bytes += obj.size
        self.stats.objects_allocated += 1
        self.stats.bytes_allocated += obj.size
        if self.on_new_object is not None:
            self.on_new_object(obj)
        if self.profiler is not None:
            self.profiler.on_alloc(obj)
        if self.gc_poll is not None and self.gc_poll():
            self.minor_due = self.gc_pending = True
        return obj

    def new_instance(self, cls: CompiledClass) -> Instance:
        handle = self.next_handle
        self.next_handle += 1
        obj = Instance(
            handle,
            cls.name,
            cls.layout.instance_bytes,
            default_field_values(cls.layout.descriptors),
        )
        self._register(obj)
        return obj

    def new_array(self, elem_desc: str, elem_repr: str, length: int) -> ArrayObject:
        handle = self.next_handle
        self.next_handle += 1
        obj = ArrayObject(handle, elem_desc, elem_repr, length)
        self._register(obj)
        return obj

    # -- use events ------------------------------------------------------------

    def note_use(self, obj: HeapObject) -> None:
        """Record a use of ``obj`` at the current clock (profiler hook).
        An attached profiler's ``on_use`` is bound over this method."""
        if self.profiler is not None:
            self.profiler.on_use(obj)

    # -- reclamation (called by the collector) ----------------------------------

    def reclaim(self, dead: List[HeapObject]) -> int:
        """Remove one sweep's ``dead`` objects, in order, and hand them
        to the profiler in one call; returns the bytes freed."""
        objects = self.objects
        freed = 0
        for obj in dead:
            del objects[obj.handle]
            freed += obj.size
        self.live_bytes -= freed
        self.stats.objects_swept += len(dead)
        self.stats.bytes_reclaimed += freed
        if self.profiler is not None:
            self.profiler.on_free(dead)
        return freed

    # -- queries ---------------------------------------------------------------

    def iter_objects(self) -> Iterable[HeapObject]:
        return self.objects.values()

    def object_count(self) -> int:
        return len(self.objects)
