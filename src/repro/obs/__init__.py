"""Unified telemetry: one tracer + one metrics registry per invocation.

The paper's contribution is measurement, so the reproduction measures
itself: a :class:`Telemetry` object travels through the engine facade
(:class:`~repro.runtime.engine.VMConfig`), the profiler, the lint
:class:`~repro.lint.passes.PassManager`, and the optimization
pipeline, collecting

* **spans** (:mod:`repro.obs.trace`) — nested wall-time + byte-clock
  regions, exported as Chrome trace JSON (``--trace``) and rendered by
  ``repro trace``;
* **metrics** (:mod:`repro.obs.metrics`) — labeled counters, gauges,
  and histograms with Prometheus text exposition (``--metrics-out``).

The zero-overhead-when-disabled invariant: everywhere a telemetry
object may be absent it is ``None``, and the hot paths (the compiled
dispatch handlers) are specialized at translation time — with no
telemetry attached the emitted closures contain *no* telemetry call
sites at all, extending PR 3's hook-specialization guarantee
(``tests/runtime/test_dispatch.py`` introspects for it). GC, lint, and
pipeline instrumentation sits on cold paths and costs one ``is None``
check per event.

Telemetry observes the byte clock but never advances it, so profiles,
stdout, instruction counts, and v1/v2 log bytes are bit-identical with
telemetry on or off (``tests/obs/`` holds both engines to it).
"""

from __future__ import annotations

from typing import Optional

from repro._lazy import lazy_exports
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    DispatchStats,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.obs.trace import (
    Span,
    TraceError,
    Tracer,
    read_chrome_trace,
    render_span_tree,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_BIN_BYTES",
    "DispatchStats",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "TimelineBuilder",
    "TimelineSink",
    "TraceError",
    "Tracer",
    "read_chrome_trace",
    "render_html",
    "render_span_tree",
    "render_timeline_text",
    "sparkline",
    "write_html",
]

# Timeline names resolve lazily: repro.obs.timeline imports the stream
# package for the sink protocol, which the tracer and the registry the
# Telemetry class below is built on never need.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.timeline": (
        "DEFAULT_BIN_BYTES", "TimelineBuilder", "TimelineSink",
        "render_timeline_text", "sparkline",
    ),
    "repro.obs.htmlreport": ("render_html", "write_html"),
})

# Histogram buckets for GC pauses and lint passes: sub-millisecond to
# tens of seconds, in seconds.
PAUSE_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
                 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0)


class Telemetry:
    """The bundle every instrumented layer receives: a tracer, a
    registry, and the dispatch-stat counters the closure compiler
    binds. Construct one per tool invocation; ``None`` (not a disabled
    instance) is the convention for "telemetry off"."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.dispatch_stats = DispatchStats()

    # -- span passthrough --------------------------------------------------

    def span(self, name: str, category: str = "repro", **args):
        return self.tracer.span(name, category=category, **args)

    def bind_clock(self, clock_fn) -> None:
        self.tracer.bind_clock(clock_fn)

    # -- GC ----------------------------------------------------------------

    def record_gc(
        self,
        pause_seconds: float,
        reclaimed_bytes: int,
        live_bytes: int,
        live_objects: int,
        kind: str = "major",
    ) -> None:
        """One collection finished; ``kind`` is ``major`` or ``minor``."""
        registry = self.registry
        registry.counter(
            "repro_gc_cycles_total", "Garbage collections run", ("kind",)
        ).labels(kind=kind).inc()
        registry.histogram(
            "repro_gc_pause_seconds",
            "Stop-the-world pause per collection",
            buckets=PAUSE_BUCKETS,
        ).observe(pause_seconds)
        registry.counter(
            "repro_gc_reclaimed_bytes_total", "Bytes reclaimed by the collector"
        ).inc(reclaimed_bytes)
        registry.gauge(
            "repro_gc_live_bytes", "Heap occupancy right after the last collection"
        ).set(live_bytes)
        registry.gauge(
            "repro_gc_live_objects", "Live objects right after the last collection"
        ).set(live_objects)

    def record_deep_gc(self) -> None:
        """One §2.1.1 deep-GC cycle (collect, finalize, collect)."""
        self.registry.counter(
            "repro_gc_deep_cycles_total", "Deep-GC cycles (collect+finalize+collect)"
        ).inc()

    # -- VM / dispatch -----------------------------------------------------

    def record_run(self, vm, result) -> None:
        """Flush one finished program run into the registry."""
        registry = self.registry
        registry.counter(
            "repro_vm_instructions_total", "Bytecode instructions retired"
        ).inc(result.instructions)
        registry.counter(
            "repro_vm_allocated_bytes_total", "Bytes allocated (the byte clock)"
        ).inc(result.heap_stats.bytes_allocated)
        registry.counter(
            "repro_vm_objects_allocated_total", "Objects allocated"
        ).inc(result.heap_stats.objects_allocated)
        registry.counter(
            "repro_vm_finalizer_errors_total", "Exceptions swallowed by finalize()"
        ).inc(result.finalizer_errors)
        stats = self.dispatch_stats
        registry.counter(
            "repro_dispatch_methods_translated_total",
            "Methods translated to handler closures",
        ).inc(stats.methods_translated)
        registry.counter(
            "repro_dispatch_handlers_total", "Handler closures emitted"
        ).inc(stats.handlers_emitted)
        # The run consumed the per-run counters; zero them so a second
        # VM under the same telemetry doesn't double-report.
        stats.methods_translated = 0
        stats.handlers_emitted = 0

    # -- profiler ----------------------------------------------------------

    def record_profiler(self, profiler) -> None:
        registry = self.registry
        registry.counter(
            "repro_profiler_records_total", "Object trailer records written"
        ).inc(profiler.record_count)
        registry.counter(
            "repro_profiler_samples_total", "Deep-GC sample batches taken"
        ).inc(profiler.sample_count)

    # -- snapshot ----------------------------------------------------------

    def record_snapshot(self, nodes: int, edges: int, seconds: float) -> None:
        """One heap snapshot captured at a deep-GC safepoint."""
        registry = self.registry
        registry.counter(
            "repro_snapshot_captures_total", "Heap snapshots captured"
        ).inc()
        registry.counter(
            "repro_snapshot_nodes_total", "Snapshot nodes recorded"
        ).inc(nodes)
        registry.counter(
            "repro_snapshot_edges_total", "Snapshot edges recorded"
        ).inc(edges)
        registry.histogram(
            "repro_snapshot_capture_seconds",
            "Wall time per snapshot capture",
            buckets=PAUSE_BUCKETS,
        ).observe(seconds)

    # -- lint --------------------------------------------------------------

    def record_lint_pass(self, name: str, seconds: float) -> None:
        self.registry.histogram(
            "repro_lint_pass_seconds",
            "Wall time per lint/analysis pass",
            ("pass",),
            buckets=PAUSE_BUCKETS,
        ).labels(name).observe(seconds)

    def record_lint_diagnostics(self, rule_id: str, count: int) -> None:
        self.registry.counter(
            "repro_lint_diagnostics_total", "Diagnostics emitted", ("rule",)
        ).labels(rule_id).inc(count)

    # -- optimize ----------------------------------------------------------

    def record_patch(self, status: str) -> None:
        """One patch outcome: applied / rolled-back / failed / planned."""
        self.registry.counter(
            "repro_optimize_patches_total", "Optimization patches by outcome", ("outcome",)
        ).labels(status).inc()

    def record_cycle(self, drag_before: int, drag_after: Optional[int]) -> None:
        self.registry.counter(
            "repro_optimize_cycles_total", "Profile-rewrite cycles run"
        ).inc()
        self.registry.gauge(
            "repro_optimize_drag_before", "Total drag entering the last cycle"
        ).set(drag_before)
        if drag_after is not None:
            self.registry.gauge(
                "repro_optimize_drag_after", "Total drag after the last verified cycle"
            ).set(drag_after)
