"""The ``compiled`` execution engine.

:class:`CompiledInterpreter` shares everything with the baseline
:class:`~repro.runtime.interpreter.Interpreter` — heap, GC entry
points, natives, string helpers, unwinding — and replaces only the
dispatch loop: instead of re-decoding ``instr.op`` through a ~50-arm
if/elif chain, it executes the handler closures produced by
:mod:`repro.runtime.dispatch`, translated lazily the first time each
method runs and cached for the life of the VM.

There is one loop, profiled or not. Its only per-boundary test is the
heap's safepoint flag, which the baseline loop tests too: an allocation
raises it when a minor collection or a deep-GC sample falls due, and
the shared ``Interpreter._safepoint`` services it. What profiling
changes is in the handlers: without a profiler they were compiled with
no profiler code at all, and with one the use handlers stamp the
object's trailer inline, the same stamp ``HeapProfiler.on_use`` makes.

One dispatch runs one instruction, or one fused straight-line run of
them (see :mod:`repro.runtime.dispatch`), as the one function the run
is compiled into at its first dispatch. The loop keeps the baseline's
per-instruction discipline — ``pc`` one past each instruction before it
runs, safepoints at every boundary an allocation can flag, MJThrow/OOM
unwound at the instruction that threw — and its count: a run returns
the instructions it ran past its first, and when a run throws, the
thrower's ``frame.pc`` says how many of its parts ran. That is what
makes the two engines bit-identical (stdout, instruction counts, byte
clock, profile logs); ``tests/runtime/test_engine_equivalence.py`` and
``tests/runtime/test_exception_equivalence.py`` hold them to it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import OutOfMemory
from repro.bytecode.program import CompiledMethod
from repro.runtime.dispatch import DispatchContext, Handler, compile_method, compile_run
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

    def compile_run(self, method: CompiledMethod, start: int) -> Handler:
        """The fused run at ``start`` compiled into one function, put in
        place of the stub that asks for it at the run's first dispatch."""
        handlers = self._code_cache[method]
        run = handlers[start] = compile_run(
            self._ctx, method, start, handlers[start].parts
        )
        return run

    # ------------------------------------------------------------------
    # the dispatch loop
    # ------------------------------------------------------------------

    def _run_to(self, floor: int) -> None:
        frames = self.frames
        heap = self.heap
        cache = self._code_cache
        prev_floor = self._floor
        self._floor = floor
        frame = None
        handlers = None
        count = 0
        try:
            while len(frames) > floor:
                if heap.gc_pending:
                    self._safepoint()
                top = frames[-1]
                if top is not frame:
                    frame = top
                    handlers = cache.get(frame.method)
                    if handlers is None:
                        handlers = self.handlers_for(frame.method)
                pc = frame.pc
                frame.pc = pc + 1
                count += 1
                try:
                    fused = handlers[pc](frame)
                    if fused:
                        count += fused
                except MJThrow as signal:
                    # A fused run stopped at the part that threw: the
                    # parts past the first that ran are frame.pc - pc - 1.
                    count += frame.pc - pc - 1
                    self._unwind(signal.obj, floor)
                except OutOfMemory:
                    count += frame.pc - pc - 1
                    oom = self.make_throwable("OutOfMemoryError", "heap exhausted")
                    self._unwind(oom, floor)
        finally:
            # The counter is kept in a local for speed and flushed on
            # every exit (including re-entrant calls unwinding through
            # here); nested _run_to calls add their own deltas.
            self.instr_count += count
            self._floor = prev_floor
