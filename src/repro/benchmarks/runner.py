"""Benchmark runner: produces the rows of Tables 2-4 and the series of
Figure 2 for any registered benchmark."""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.integrals import HeapCurve, SavingsRow, curve_from_records, savings
from repro.core.profiler import ProfileResult, profile_program
from repro.mjava.compiler import compile_program
from repro.mjava.metrics import count_classes, count_statements
from repro.mjava.parser import parse_program
from repro.runtime.engine import create_vm
from repro.runtime.generational import GenerationalCollector
from repro.runtime.library import link
from repro.benchmarks.registry import Benchmark


class BenchmarkRun:
    """Original-vs-revised profiled pair for one benchmark and input."""

    def __init__(
        self,
        benchmark: Benchmark,
        which: str,
        original: ProfileResult,
        revised: ProfileResult,
    ) -> None:
        self.benchmark = benchmark
        self.which = which
        self.original = original
        self.revised = revised
        self.savings: SavingsRow = savings(original.records, revised.records)

    def outputs_match(self) -> bool:
        """§3.2: 'we also checked that the original and revised
        benchmarks produce identical results'."""
        return self.original.run_result.stdout == self.revised.run_result.stdout


def compile_benchmark(benchmark: Benchmark, revised: bool):
    if revised:
        program_ast = link(
            benchmark.revised, library_overrides=benchmark.revised_library_overrides
        )
    else:
        program_ast = link(benchmark.original)
    return compile_program(program_ast, main_class=benchmark.main_class)


def run_pair(
    benchmark: Benchmark,
    which: str = "primary",
    interval_bytes: Optional[int] = None,
    engine: Optional[str] = None,
) -> BenchmarkRun:
    """Profile the original and revised versions on one input."""
    interval = interval_bytes or benchmark.interval_bytes
    args = benchmark.args_for(which)
    original = profile_program(
        compile_benchmark(benchmark, revised=False),
        args,
        interval_bytes=interval,
        engine=engine,
    )
    revised = profile_program(
        compile_benchmark(benchmark, revised=True),
        args,
        interval_bytes=interval,
        engine=engine,
    )
    return BenchmarkRun(benchmark, which, original, revised)


# ---------------------------------------------------------------------------
# Figure 2: heap curves
# ---------------------------------------------------------------------------


def heap_timeline(result: ProfileResult, bin_bytes: Optional[int] = None):
    """Fold one profile result into a
    :class:`~repro.obs.timeline.TimelineBuilder` (records, deep-GC
    samples, and end time)."""
    from repro.obs.timeline import DEFAULT_BIN_BYTES, TimelineBuilder

    builder = TimelineBuilder(bin_bytes=bin_bytes or DEFAULT_BIN_BYTES)
    builder.consume(result.records)
    for sample in result.samples:
        builder.add_sample(sample)
    builder.note_end(result.end_time)
    return builder


def figure2_series(run: BenchmarkRun) -> Dict[str, HeapCurve]:
    """The four curves of one Figure-2 panel: original and revised,
    reachable and in-use heap size over allocation time, as the exact
    step functions ``curve_from_records`` builds from each run's
    records (the binned series of :func:`heap_timeline` are their
    per-bin integrals)."""
    return {
        f"{label}_{kind}": curve_from_records(result.records, kind)
        for label, result in (("original", run.original), ("revised", run.revised))
        for kind in ("reachable", "in_use")
    }


# ---------------------------------------------------------------------------
# Table 4: simulated runtime under the generational collector
# ---------------------------------------------------------------------------

# Cost-model weights (arbitrary time units). Interpretation dominates;
# allocation+initialization and GC work are the terms the paper's
# rewrites shrink ("speedups are due to (i) allocation savings ... and
# (ii) GC is invoked less frequently").
COST_INSTRUCTION = 1.0
COST_PER_ALLOCATION = 12.0
COST_PER_BYTE_ALLOCATED = 0.02
COST_PER_MARK = 3.0
COST_PER_SWEEP = 1.5
COST_PER_FINALIZER = 40.0


def simulated_runtime(result) -> float:
    stats = result.heap_stats
    return (
        COST_INSTRUCTION * result.instructions
        + COST_PER_ALLOCATION * stats.objects_allocated
        + COST_PER_BYTE_ALLOCATED * stats.bytes_allocated
        + COST_PER_MARK * stats.objects_marked
        + COST_PER_SWEEP * stats.objects_swept
        + COST_PER_FINALIZER * stats.finalizers_run
    )


class RuntimeRun:
    """Original-vs-revised unprofiled pair under the generational GC."""

    def __init__(self, benchmark: Benchmark, original_result, revised_result) -> None:
        self.benchmark = benchmark
        self.original_result = original_result
        self.revised_result = revised_result
        self.original_runtime = simulated_runtime(original_result)
        self.revised_runtime = simulated_runtime(revised_result)

    @property
    def saving_pct(self) -> float:
        if self.original_runtime <= 0:
            return 0.0
        return 100.0 * (self.original_runtime - self.revised_runtime) / self.original_runtime


def _gen_factory(young_threshold: int):
    def factory(heap, program):
        return GenerationalCollector(heap, program, young_threshold=young_threshold)

    return factory


def run_runtime_pair(
    benchmark: Benchmark,
    which: str = "primary",
    young_threshold: int = 64 * 1024,
    engine: Optional[str] = None,
) -> RuntimeRun:
    """Run both versions unprofiled under the generational collector
    (the paper's Table-4 setup: HotSpot client, generational GC) and
    apply the deterministic cost model."""
    args = benchmark.args_for(which)
    results = []
    for revised in (False, True):
        program = compile_benchmark(benchmark, revised=revised)
        interp = create_vm(
            program,
            engine=engine,
            max_heap=benchmark.max_heap,
            collector_factory=_gen_factory(young_threshold),
        )
        results.append(interp.run(args))
    original_result, revised_result = results
    if original_result.stdout != revised_result.stdout:
        raise AssertionError(
            f"{benchmark.name}: revised output differs from original"
        )
    return RuntimeRun(benchmark, original_result, revised_result)


# ---------------------------------------------------------------------------
# Table 1: source metrics
# ---------------------------------------------------------------------------


def benchmark_metrics(benchmark: Benchmark) -> Dict[str, int]:
    program = parse_program(benchmark.original)
    return {
        "classes": count_classes(program),
        "stmts": count_statements(program),
    }
