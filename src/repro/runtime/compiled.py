"""The ``compiled`` execution engine.

:class:`CompiledInterpreter` shares everything with the baseline
:class:`~repro.runtime.interpreter.Interpreter` — heap, GC entry
points, natives, string helpers, unwinding — and replaces only the
dispatch loop: instead of re-decoding ``instr.op`` through a ~50-arm
if/elif chain, it executes the handler closures produced by
:mod:`repro.runtime.dispatch`, translated lazily the first time each
method runs and cached for the life of the VM.

The loop comes in two specializations, chosen once per ``_run_to``
entry from whether a profiler is attached:

* **unprofiled** — no sampling poll at all; the handlers themselves
  were compiled without profiler code;
* **profiled** — the baseline's exact instruction-boundary safepoint
  (sample when the byte clock crosses ``next_sample_at``, then service
  any pending minor GC), with use handlers that stamp the object's
  trailer inline, the same stamp ``HeapProfiler.on_use`` makes.

Both specializations keep the baseline's per-instruction discipline —
``pc`` pre-incremented, safepoints at every boundary, MJThrow/OOM
unwound per instruction — which is what makes the two engines
bit-identical (stdout, instruction counts, byte clock, profile logs);
``tests/runtime/test_engine_equivalence.py`` holds them to it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import OutOfMemory
from repro.bytecode.program import CompiledMethod
from repro.runtime.dispatch import DispatchContext, Handler, compile_method
from repro.runtime.interpreter import Interpreter, MJThrow


class CompiledInterpreter(Interpreter):
    """A mini-JVM that runs precompiled handler closures."""

    def __init__(self, program, **kwargs) -> None:
        super().__init__(program, **kwargs)
        # The frame-stack depth at which the innermost _run_to stops;
        # RET/RETV handlers read it to route return values.
        self._floor = 0
        telemetry = self.telemetry
        self._ctx = DispatchContext(
            self,
            profiler=self.profiler,
            stats=None if telemetry is None else telemetry.dispatch_stats,
        )
        self._code_cache: Dict[CompiledMethod, List[Handler]] = {}

    # ------------------------------------------------------------------
    # translation
    # ------------------------------------------------------------------

    def handlers_for(self, method: CompiledMethod) -> List[Handler]:
        """The method's handler closures, translating on first use."""
        handlers = self._code_cache.get(method)
        if handlers is None:
            handlers = self._code_cache[method] = compile_method(
                method, self._ctx
            )
        return handlers

    # ------------------------------------------------------------------
    # the dispatch loop
    # ------------------------------------------------------------------

    def _run_to(self, floor: int) -> None:
        frames = self.frames
        heap = self.heap
        profiler = self.profiler
        cache = self._code_cache
        prev_floor = self._floor
        self._floor = floor
        frame = None
        handlers = None
        count = 0
        try:
            if profiler is None:
                while len(frames) > floor:
                    if heap.gc_pending:
                        heap.gc_pending = False
                        self.collector.collect(self.iter_roots())
                    top = frames[-1]
                    if top is not frame:
                        frame = top
                        handlers = cache.get(frame.method)
                        if handlers is None:
                            handlers = self.handlers_for(frame.method)
                    handler = handlers[frame.pc]
                    frame.pc += 1
                    count += 1
                    try:
                        handler(frame)
                    except MJThrow as signal:
                        self._unwind(signal.obj, floor)
                    except OutOfMemory:
                        oom = self.make_throwable(
                            "OutOfMemoryError", "heap exhausted"
                        )
                        self._unwind(oom, floor)
            else:
                take_sample = profiler.take_sample
                while len(frames) > floor:
                    # The clock test is false at almost every boundary,
                    # so it goes first; both tests only read state.
                    if (
                        heap.clock >= profiler.next_sample_at
                        and not self._sampling
                    ):
                        self._sampling = True
                        try:
                            take_sample(self)
                        finally:
                            self._sampling = False
                    if heap.gc_pending:
                        heap.gc_pending = False
                        self.collector.collect(self.iter_roots())
                    top = frames[-1]
                    if top is not frame:
                        frame = top
                        handlers = cache.get(frame.method)
                        if handlers is None:
                            handlers = self.handlers_for(frame.method)
                    handler = handlers[frame.pc]
                    frame.pc += 1
                    count += 1
                    try:
                        handler(frame)
                    except MJThrow as signal:
                        self._unwind(signal.obj, floor)
                    except OutOfMemory:
                        oom = self.make_throwable(
                            "OutOfMemoryError", "heap exhausted"
                        )
                        self._unwind(oom, floor)
        finally:
            # The counter is kept in a local for speed and flushed on
            # every exit (including re-entrant calls unwinding through
            # here); nested _run_to calls add their own deltas.
            self.instr_count += count
            self._floor = prev_floor
