"""The traced pass: self time per layer, from wrappers around entry points.

:class:`LayerTracer` replaces a fixed list of public functions and
methods of the program with timing wrappers while it is active, and
puts the originals back afterwards. Nothing inside the program is
edited; a code path that stops going through these entry points shows
up as a rising ``trace.unattributed_share``.

Each wrapped call is attributed to a layer. A layer's self time is its
calls' duration minus the part covered by wrapped calls made inside
them. Coarse entry points also become spans in a
:class:`repro.obs.trace.Tracer`, so ``repro trace`` renders the pass;
hot ones (called once per record) are only summed, which keeps the
trace file small and the tracing overhead low.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

# (module, attribute, layer, hot). Hot entry points run once per record.
ENTRY_POINTS: List[Tuple[str, str, str, bool]] = [
    ("repro.cli", "build_parser", "cli.parser", False),
    ("repro.runtime.library", "link", "mjava.compile", False),
    ("repro.mjava.compiler", "compile_program", "mjava.compile", False),
    ("repro.runtime.interpreter", "Interpreter.run", "runtime", False),
    ("repro.runtime.interpreter", "Interpreter.deep_gc", "runtime.gc.deep", False),
    ("repro.runtime.gc", "MarkSweepCollector.collect", "runtime.gc.collect", False),
    ("repro.core.profiler", "HeapProfiler.take_sample", "core.profiler.emit", False),
    ("repro.core.profiler", "HeapProfiler.on_program_end", "core.profiler.emit", False),
    ("repro.core.profiler", "HeapProfiler.on_free", "core.profiler.emit", True),
    ("repro.stream.codec", "V2FrameEncoder.write_record", "stream.codec.encode", True),
    ("repro.stream.codec", "V2FrameEncoder.write_sample", "stream.codec.encode", True),
    ("repro.stream.codec", "V2FrameEncoder.write_end", "stream.codec.encode", False),
    ("repro.core.logfile", "read_log", "stream.codec.decode", False),
    ("repro.stream.codec", "V2TailReader.poll", "stream.codec.decode", False),
    ("repro.core.analyzer", "DragAnalysis.__init__", "core.analyzer.fold", False),
    ("repro.core.report", "drag_report", "core.report.render", False),
    ("repro.stream.aggregate", "StreamingDragAnalysis.consume", "stream.aggregate.fold", False),
    ("repro.stream.aggregate", "StreamingDragAnalysis.add", "stream.aggregate.fold", True),
    ("repro.obs.timeline", "TimelineBuilder.consume", "obs.timeline.fold", False),
    ("repro.obs.timeline", "TimelineBuilder.payload", "obs.timeline.fold", False),
]

LAYERS = sorted({layer for _, _, layer, _ in ENTRY_POINTS})


class OpTrace:
    """What one traced operation spent: wall time and self time per layer."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.self_s: Dict[str, float] = defaultdict(float)
        # Heap counters of each Interpreter.run inside the operation.
        self.heap_stats: List[object] = []

    @property
    def unattributed_s(self) -> float:
        return self.wall - sum(self.self_s.values())


class LayerTracer:
    """Runs operations with the wrappers installed; see the module doc."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self._child: List[float] = []
        self._op = OpTrace()

    def op(self, name: str, fn):
        """Run ``fn()`` as one traced operation; returns (result, OpTrace).

        The wrappers are in place only while ``fn`` runs, so nothing
        else in the process (the load generator's threads included)
        ever reaches them.
        """
        self._op = trace = OpTrace()
        saved = self._install()
        self._child.append(0.0)
        try:
            with self.tracer.span(name, category="op") as span:
                started = perf_counter()
                try:
                    result = fn()
                finally:
                    trace.wall = perf_counter() - started
                span.args.update(
                    {f"self_ms.{layer}": round(s * 1e3, 3)
                     for layer, s in trace.self_s.items()}
                )
        finally:
            self._child.pop()
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
        return result, trace

    def _install(self) -> List[Tuple[object, str, object]]:
        saved = []
        for module_name, attr, layer, hot in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            # The class's own attribute, so restoring never turns an
            # inherited method into a copy on the subclass.
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, hot, attr == "Interpreter.run"))
        return saved

    def _wrap(self, fn, layer: str, hot: bool, keeps_heap_stats: bool):
        child = self._child
        tracer = self.tracer

        def timed(args, kwargs):
            child.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                op = self._op
                op.self_s[layer] += elapsed - child.pop()
                child[-1] += elapsed
            if keeps_heap_stats:
                op.heap_stats.append(result.heap_stats)
            return result

        if hot:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return timed(args, kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with tracer.span(fn.__qualname__, category=layer):
                    return timed(args, kwargs)
        return wrapper
