"""Telemetry end-to-end: instruments fire, and — the load-bearing
invariant — telemetry observes without perturbing: stdout, instruction
counts, the byte clock, the v2 profile log bytes and the v1 record
lines are identical
with telemetry on or off, on both engines."""

import os

import pytest

from repro.core.profiler import HeapProfiler
from repro.benchmarks.registry import all_benchmarks
from repro.benchmarks.runner import compile_benchmark
from repro.mjava.compiler import compile_program
from repro.obs import Telemetry
from repro.runtime.engine import ENGINES, create_vm
from repro.runtime.library import link
from repro.stream.codec import V2LogWriter
from repro.stream.sinks import LogWriterSink
from tests.runtime.test_engine_equivalence import log_sink

SOURCE = """
class Node { Node next; int payload; }
class Main {
    public static void main(String[] args) {
        Node head = null;
        for (int i = 0; i < 200; i = i + 1) {
            Node n = new Node();
            n.payload = i;
            n.next = head;
            head = n;
        }
        int total = 0;
        while (head != null) { total = total + head.payload; head = head.next; }
        System.gc();
        System.println("total=" + total);
    }
}
"""


def _program():
    return compile_program(link(SOURCE), main_class="Main")


class TestInstrumentsFire:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_run_metrics(self, engine):
        telemetry = Telemetry()
        vm = create_vm(_program(), engine=engine, telemetry=telemetry)
        result = vm.run([])
        assert result.stdout == ["total=19900"]
        snap = telemetry.registry.snapshot()
        assert snap["repro_vm_instructions_total"] == result.instructions
        assert snap["repro_vm_allocated_bytes_total"] == result.heap_stats.bytes_allocated
        assert snap["repro_gc_cycles_total"] == {"kind=major": result.heap_stats.gc_runs}
        assert snap["repro_gc_pause_seconds"]["count"] == result.heap_stats.gc_runs
        assert snap["repro_gc_pause_seconds"]["sum"] == pytest.approx(
            result.heap_stats.gc_pause_seconds
        )

    def test_compiled_dispatch_metrics(self):
        telemetry = Telemetry()
        vm = create_vm(_program(), engine="compiled", telemetry=telemetry)
        vm.run([])
        snap = telemetry.registry.snapshot()
        assert snap["repro_dispatch_methods_translated_total"] > 0
        assert snap["repro_dispatch_handlers_total"] > 0
        # The per-run counters were flushed and zeroed.
        assert telemetry.dispatch_stats.methods_translated == 0
        assert telemetry.dispatch_stats.handlers_emitted == 0

    def test_profiled_run_emits_gc_spans_and_profiler_counters(self):
        from repro.core.profiler import profile_program

        telemetry = Telemetry()
        result = profile_program(
            _program(), interval_bytes=2048, telemetry=telemetry
        )
        snap = telemetry.registry.snapshot()
        assert snap["repro_profiler_records_total"] == result.profiler.record_count
        assert snap["repro_profiler_samples_total"] == result.profiler.sample_count
        assert snap["repro_gc_deep_cycles_total"] > 0
        roots = telemetry.tracer.roots
        assert [s.name for s in roots] == ["profile.run"]
        deep = [c for c in roots[0].children if c.name == "gc.deep"]
        assert deep, "no gc.deep spans nested under the run"
        # Deep GC never allocates: zero byte-clock width, always.
        assert all(s.clock_bytes == 0 for s in deep)


class TestTelemetryIsInvisible:
    """Differential: telemetry-on vs telemetry-off must be bit-identical
    in everything the paper's pipeline consumes."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_plain_run_identical(self, engine):
        base = create_vm(_program(), engine=engine).run([])
        traced = create_vm(
            _program(), engine=engine, telemetry=Telemetry()
        ).run([])
        assert traced.stdout == base.stdout
        assert traced.instructions == base.instructions
        assert traced.clock == base.clock
        assert traced.heap_stats.gc_runs == base.heap_stats.gc_runs

    @pytest.mark.parametrize("name", ["db", "euler"])
    @pytest.mark.parametrize("fmt,suffix", [("v1", ".draglog"), ("v2", ".dlog2")])
    def test_profile_log_bytes_identical(self, tmp_path, name, fmt, suffix):
        bench = all_benchmarks()[name]
        args = bench.args_for("primary")
        paths = {}
        for label, telemetry in (("off", None), ("on", Telemetry())):
            path = tmp_path / f"{name}-{label}{suffix}"
            sink = log_sink(path, fmt)
            profiler = HeapProfiler(interval_bytes=65536, sink=sink)
            vm = create_vm(
                compile_benchmark(bench, revised=False),
                engine="compiled",
                max_heap=bench.max_heap,
                profiler=profiler,
                telemetry=telemetry,
            )
            vm.run(list(args))
            sink.close()
            paths[label] = path
        assert paths["on"].read_bytes() == paths["off"].read_bytes()


class TestLintAndPipelineTelemetry:
    def test_lint_records_pass_durations_and_diagnostics(self):
        from repro.lint import lint_program

        telemetry = Telemetry()
        program = link(SOURCE)
        lint_program(program, "Main", telemetry=telemetry)
        snap = telemetry.registry.snapshot()
        passes = snap["repro_lint_pass_seconds"]
        assert "pass=callgraph" in passes
        assert any(key.startswith("pass=rule-") for key in passes)
        roots = telemetry.tracer.roots
        assert [s.name for s in roots] == ["lint.run_all"]
        assert any(c.name.startswith("lint.pass.") for c in roots[0].children)

    def test_pipeline_records_cycles_and_patches(self):
        from repro.transform.pipeline import OptimizationPipeline

        telemetry = Telemetry()
        pipeline = OptimizationPipeline(
            link(SOURCE), "Main", max_cycles=1, telemetry=telemetry
        )
        pipeline.run()
        snap = telemetry.registry.snapshot()
        assert snap["repro_optimize_cycles_total"] == 1
        assert snap["repro_optimize_drag_before"] >= 0
        names = [s.name for s in telemetry.tracer.roots]
        assert "optimize.cycle" in names


class TestLiveRegistry:
    def test_metrics_sink_updates_registry(self):
        from repro.core.profiler import profile_program
        from repro.obs import MetricsRegistry
        from repro.stream.live import MetricsSink

        registry = MetricsRegistry()
        sink = MetricsSink(registry=registry)
        result = profile_program(_program(), interval_bytes=2048, sink=sink)
        snap = registry.snapshot()
        assert snap["repro_live_finished"] == 1
        assert snap["repro_live_records_seen"] == result.profiler.record_count
        assert snap["repro_live_clock_bytes"] == result.end_time

    def test_watch_and_sink_agree(self, tmp_path):
        from repro.core.profiler import profile_program
        from repro.obs import MetricsRegistry
        from repro.stream.live import MetricsSink
        from repro.stream.sinks import TeeSink
        from repro.stream.watch import watch_log

        log = tmp_path / "run.dlog2"
        registry = MetricsRegistry()
        live = MetricsSink(registry=registry)
        writer = LogWriterSink(V2LogWriter(log))
        profile_program(_program(), interval_bytes=2048, sink=TeeSink(writer, live))
        writer.close()

        watch_registry = MetricsRegistry()
        out = tmp_path / "watch.prom"
        with open(os.devnull, "w") as sink_out:
            watch_log(log, once=True, registry=watch_registry,
                      metrics_out=str(out), out=sink_out)
        assert watch_registry.snapshot() == registry.snapshot()
        assert out.read_text() == watch_registry.exposition()
