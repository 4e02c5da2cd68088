"""Phase 1: the on-line heap profiler (the instrumented JVM of §2.1).

The profiler observes the interpreter/heap events:

* ``on_alloc`` — stamps a trailer with creation time (the byte clock)
  and the object's allocation context: its site, its type and its
  *nested allocation site* (the call chain leading to the allocation,
  to a configurable depth — §2.1.1: "The level of nesting can be set
  in order to tradeoff more accurate information and speed"). The heap
  calls it on every registration. When the allocation moves the clock
  past the next sample threshold, it raises the heap's safepoint flag.
* ``on_use`` — stamps last-use time and nested last-use site on every
  §2.1.1 object use. This method is the reference semantics: the
  baseline interpreter and the natives (through ``heap.note_use``)
  call it, and the compiled engine's use handlers make the same stamp
  inline (see :mod:`repro.runtime.dispatch`).
* ``take_sample`` — runs a *deep GC* every ``interval_bytes`` of
  allocation (default 100 KB) and records a heap sample. The
  interpreter's safepoint calls it (see ``Interpreter._safepoint``).
* ``on_free`` / ``on_program_end`` — writes the log records of one
  sweep's dead objects, in one call (``Heap.reclaim``); at program end
  a final deep GC runs and survivors are logged with
  ``collection_time`` equal to the end time.

Events observe the byte clock; they never advance it, so a profiled
run executes exactly the instructions of a plain one.

Byte-weighted sampling is decided inside ``on_alloc``: it either
attaches a trailer (sampled, weight ``>= 1``) or attaches nothing, and
use stamping and record logging skip trailer-less objects — so a freed
object is logged iff its allocation was sampled, with the same weight.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.sampler import ByteSampler
from repro.core.trailer import AllocContext, HeapSample, ObjectRecord, Trailer
from repro.runtime.objects import HeapObject, Instance


class _FrameLabels(dict):
    """``(method, pc)`` -> ``"Class.method:line"``, formatted on first
    lookup; bounded by the program's distinct code positions."""

    __slots__ = ()

    def __missing__(self, frame_ref) -> str:
        method, pc = frame_ref
        code = method.code
        if 0 <= pc < len(code):
            line = code[pc].line
        else:
            line = method.line
        label = self[frame_ref] = f"{method.qualified_name}:{line}"
        return label


class HeapProfiler:
    """The drag profiler. Attach to an Interpreter via its constructor:
    ``Interpreter(program, profiler=HeapProfiler())``."""

    def __init__(
        self,
        interval_bytes: int = 100 * 1024,
        nesting_depth: int = 4,
        last_use_depth: int = 1,
        sink=None,
        sample_bytes: Optional[int] = None,
        seed: int = 0,
        snapshotter=None,
    ) -> None:
        if interval_bytes <= 0:
            raise ValueError("interval_bytes must be positive")
        self.interval_bytes = interval_bytes
        self.nesting_depth = nesting_depth
        self.last_use_depth = last_use_depth
        self.next_sample_at = interval_bytes
        # ``sink`` receives each record/sample the moment it is emitted
        # (see repro.stream.sinks), keeping memory at O(live objects +
        # sites) instead of O(all objects ever allocated). Without one
        # the profiler buffers them in ``records``/``samples``; a caller
        # that wants both tees in a BufferSink.
        self.sink = sink
        # Optional repro.snapshot.SnapshotRecorder: captures a heap
        # snapshot right after each deep GC (the only moments the heap
        # is exactly its reachable set). Capture only reads the heap —
        # profiles are bit-identical with it on or off.
        self.snapshotter = snapshotter
        self.records: List[ObjectRecord] = []
        self.samples: List[HeapSample] = []
        if sink is None:
            self._on_record = self.records.append
            self._on_sample = self.samples.append
        else:
            from repro.stream.sinks import LogWriterSink

            if type(sink) is LogWriterSink:
                # Its on_record only forwards: skip that call per record.
                self._on_record = sink.writer.write_record
            else:
                self._on_record = sink.on_record
            self._on_sample = sink.on_sample
        self.record_count = 0
        self.sample_count = 0
        self.finalizer_errors = 0
        self.interp = None
        self.program = None
        self.heap = None
        self.frames = None
        self._ended = False
        # Byte-weighted sampling (see repro.core.sampler), decided in
        # on_alloc. ``sample_bytes <= 1`` deliberately means "no sampler
        # at all": --sample-bytes 1 runs the identical code path as an
        # unsampled profile.
        self.sample_bytes = sample_bytes
        self.seed = seed
        self.sampler: Optional[ByteSampler] = None
        if sample_bytes is not None and sample_bytes > 1:
            self.sampler = ByteSampler(sample_bytes, seed=seed)
        self._labels = _FrameLabels()
        # The allocation-context table: (site, object class, class name
        # or array element type, then method and pc of each frame of the
        # nested allocation site, outermost first) -> its AllocContext.
        # Bounded by the run's distinct allocation contexts.
        self._contexts: Dict[tuple, AllocContext] = {}
        self._alloc_chain = (
            slice(-nesting_depth, None) if nesting_depth > 0 else slice(0, 0)
        )

    # -- wiring ----------------------------------------------------------

    def attach(self, interp) -> None:
        self.interp = interp
        self.program = interp.program
        self.heap = interp.heap
        self.frames = interp.frames

    # -- call-chain capture ------------------------------------------------
    #
    # Hot path discipline: use events fire on every getfield; capturing
    # a frame is therefore a raw (method, pc) tuple, and the
    # "Class.method:line" label is only looked up when the object's
    # record is logged (reclamation or program end). Allocations look
    # their raw chain up in the context table, so the labels of an
    # allocation context are formatted once, when it is first seen.
    # _FrameLabels is the one place a frame label is formatted.

    def _nested_frames(self, depth: int) -> Tuple:
        """The raw last-use chain: up to ``depth`` ``(method, pc)``
        frames, innermost first, like the nested allocation site."""
        frames = self.frames
        if not frames or depth <= 0:
            return ()
        start = max(0, len(frames) - depth)
        return tuple(
            (frames[i].method, frames[i].pc - 1)
            for i in range(len(frames) - 1, start - 1, -1)
        )

    # -- event hooks ----------------------------------------------------------

    def on_alloc(self, obj: HeapObject) -> None:
        """Raise the sample trigger if ``obj`` moved the clock to the
        next threshold, then attach its trailer, with the allocation
        context interned on first sight.

        Under sampling, a skipped allocation gets *no trailer*, so every
        later ``on_use``/``on_free`` for it falls through the existing
        ``trailer is None`` checks — that structural pairing is the
        whole onAlloc/onFree matching guarantee."""
        heap = self.heap
        clock = heap.clock
        if clock >= self.next_sample_at:
            heap.gc_pending = True
        sampler = self.sampler
        weight = 1.0 if sampler is None else sampler.sample(obj.size)
        if not weight:
            return
        # Keyed on the name the object already holds; its type name is
        # formatted only when the context is new.
        cls = obj.__class__
        key = [
            self.interp.alloc_site,
            cls,
            obj.class_name if cls is Instance else obj.elem_repr,
        ]
        for frame in self.frames[self._alloc_chain]:
            key.append(frame.method)
            key.append(frame.pc)
        key = tuple(key)
        context = self._contexts.get(key)
        if context is None:
            site = key[0]
            if site is not None:
                info = self.program.site(site)
                label, kind, is_lib = info.label, info.kind, info.is_library
            else:
                label, kind, is_lib = "<unknown>", "new", True
            labels = self._labels
            # innermost frame first, matching "the call chain leading to
            # the allocation" read bottom-up.
            nested = tuple([
                labels[key[i], key[i + 1] - 1] for i in range(len(key) - 2, 2, -2)
            ])
            context = self._contexts[key] = AllocContext(
                site, obj.type_name(), label, kind, is_lib, nested
            )
        obj.trailer = Trailer(clock, context, weight)

    def on_use(self, obj: HeapObject) -> None:
        """Stamp a §2.1.1 use of ``obj`` at the current clock and frame."""
        trailer = obj.trailer
        if trailer is None:
            return
        clock = self.heap.clock
        if trailer.first_use_time == 0:
            trailer.first_use_time = clock
        trailer.last_use_time = clock
        frames = self.frames
        if frames:
            frame = frames[-1]
            trailer.last_use_frame = (frame.method, frame.pc - 1)
            if self.last_use_depth > 1:
                trailer.last_use_chain = self._nested_frames(self.last_use_depth)

    def on_free(self, objs: Iterable[HeapObject], survived: bool = False) -> None:
        """Log the records of ``objs``, in order, collected now: reclaimed
        by one GC sweep, or (``survived``) still in the heap at program
        end."""
        labels = self._labels
        clock = self.heap.clock
        emit = self._on_record
        for obj in objs:
            if obj.excluded:
                continue
            trailer = obj.trailer
            if trailer is None:
                continue
            context = trailer.context
            use_frame = trailer.last_use_frame
            use_chain = trailer.last_use_chain
            record = ObjectRecord(
                obj.handle, context.type_name, obj.size,
                trailer.creation_time, trailer.last_use_time, clock,
                context.site, context.label, context.kind, context.is_library,
                context.nested,
                None if use_frame is None else labels[use_frame],
                None if use_chain is None else tuple([labels[f] for f in use_chain]),
                False, survived, trailer.first_use_time, trailer.weight,
            )
            self.record_count += 1
            emit(record)

    # -- sampling ---------------------------------------------------------------

    def take_sample(self, interp) -> None:
        """Deep GC + sample. Called by the interpreter at the first
        instruction boundary after each 100 KB (interval) of allocation.

        ``on_alloc`` raises the heap's safepoint flag when the clock
        reaches ``next_sample_at``; both engines then call
        ``Interpreter._safepoint``, which calls this unless a sample is
        already being taken, and raises the flag again afterwards if
        finalizers moved the clock past the new threshold."""
        heap = interp.heap
        while self.next_sample_at <= heap.clock:
            self.next_sample_at += self.interval_bytes
        interp.deep_gc()
        if self.snapshotter is not None:
            self.snapshotter.capture(interp, reason="interval")
        self._emit_sample(
            HeapSample(heap.clock, heap.live_bytes, heap.object_count())
        )

    # -- finish --------------------------------------------------------------------

    def on_program_end(self, interp) -> None:
        """§2.1.1: 'When the program terminates, we perform a last deep
        GC and then we log information for all objects that still remain
        in the heap.'"""
        if self._ended:
            return
        self._ended = True
        interp.deep_gc()
        if self.snapshotter is not None:
            self.snapshotter.capture(interp, reason="end")
        end_time = interp.heap.clock
        self._emit_sample(
            HeapSample(end_time, interp.heap.live_bytes, interp.heap.object_count())
        )
        # Nothing allocates from here on, so the clock stays end_time.
        self.on_free(list(interp.heap.iter_objects()), survived=True)
        self.finalizer_errors = interp.finalizer_errors
        if self.sink is not None:
            self.sink.on_end(end_time, finalizer_errors=self.finalizer_errors)

    # -- sample emission ---------------------------------------------------------

    def _emit_sample(self, sample: HeapSample) -> None:
        self.sample_count += 1
        self._on_sample(sample)


class ProfileResult:
    """Everything produced by one profiled run."""

    def __init__(self, program, run_result, profiler: HeapProfiler) -> None:
        self.program = program
        self.run_result = run_result
        self.profiler = profiler

    @property
    def records(self) -> List[ObjectRecord]:
        return self.profiler.records

    @property
    def samples(self) -> List[HeapSample]:
        return self.profiler.samples

    @property
    def end_time(self) -> int:
        return self.run_result.clock

    @property
    def finalizer_errors(self) -> int:
        return self.run_result.finalizer_errors


def profile_program(
    program,
    args: Optional[List[str]] = None,
    interval_bytes: int = 100 * 1024,
    nesting_depth: int = 4,
    last_use_depth: int = 1,
    max_heap: Optional[int] = None,
    sink=None,
    engine: Optional[str] = None,
    telemetry=None,
    sample_bytes: Optional[int] = None,
    seed: int = 0,
    snapshotter=None,
) -> ProfileResult:
    """Run a compiled program under the profiler (phase 1).

    With ``sink`` set, records and samples stream into it as they are
    emitted (see :mod:`repro.stream`) instead of being buffered on the
    result; tee in a :class:`~repro.stream.sinks.BufferSink` to keep
    them as well. ``engine`` picks the dispatch
    strategy (see :mod:`repro.runtime.engine`); both engines produce
    bit-identical profiles. ``telemetry`` (a :class:`repro.obs.Telemetry`)
    wraps the run in a span and flushes profiler counters; profiles are
    bit-identical with it on or off. ``sample_bytes``/``seed`` enable
    deterministic byte-weighted sampling (see :mod:`repro.core.sampler`);
    ``sample_bytes=1`` is bit-identical to no sampling at all.
    """
    from repro.runtime.engine import create_vm

    profiler = HeapProfiler(
        interval_bytes=interval_bytes,
        nesting_depth=nesting_depth,
        last_use_depth=last_use_depth,
        sink=sink,
        sample_bytes=sample_bytes,
        seed=seed,
        snapshotter=snapshotter,
    )
    interp = create_vm(
        program, engine=engine, profiler=profiler, max_heap=max_heap,
        telemetry=telemetry,
    )
    if telemetry is None:
        run_result = interp.run(args or [])
    else:
        with telemetry.span(
            "profile.run", category="profiler", interval_bytes=interval_bytes
        ):
            run_result = interp.run(args or [])
        telemetry.record_profiler(profiler)
    return ProfileResult(program, run_result, profiler)


def profile_source(
    source: str,
    main_class: str,
    args: Optional[List[str]] = None,
    library_overrides=None,
    **options,
) -> ProfileResult:
    """Convenience: link, compile, and profile mini-Java source.
    ``options`` are :func:`profile_program`'s keyword arguments."""
    from repro.mjava.compiler import compile_program
    from repro.runtime.library import link

    program = compile_program(
        link(source, library_overrides=library_overrides), main_class=main_class
    )
    return profile_program(program, args, **options)
