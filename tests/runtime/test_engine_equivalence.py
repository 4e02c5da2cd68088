"""Differential harness: the compiled engine must be bit-identical to
the baseline interpreter — stdout, instruction counts, byte clock, heap
statistics, and (profiled) the full record/sample streams, the v2 log
bytes and the v1 record lines — on every registered benchmark and example program.

This suite is the gate for the layered execution engine: any dispatch
optimization that shifts a safepoint, reorders a use event, or changes
an exception message fails here. Every fused run a program dispatches
is compiled into one function at its first dispatch, so the proofs
cover the generated code.
"""

import json
from pathlib import Path

import pytest

from repro.core.profiler import HeapProfiler
from repro.benchmarks.registry import all_benchmarks
from repro.benchmarks.runner import compile_benchmark
from repro.mjava.compiler import compile_program
from repro.runtime.compiled import CompiledInterpreter
from repro.runtime.engine import ENGINES, create_vm
from repro.runtime.interpreter import Interpreter
from repro.runtime.library import link
from repro.stream.codec import V2LogWriter
from repro.stream.sinks import BufferSink, LogWriterSink

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples" / "programs"

# Example programs: (filename, main class, args).
EXAMPLE_PROGRAMS = [
    ("wordcount.mj", "WordCount", ["12"]),
]

BENCHMARK_NAMES = sorted(all_benchmarks())

# Wall-clock fields are outside the deterministic core (they never feed
# the byte clock or the profile) and cannot be equal across two runs.
NONDETERMINISTIC_STATS = {"gc_pause_seconds"}


def _stats_dict(stats):
    return {
        f: getattr(stats, f)
        for f in stats.__slots__
        if f not in NONDETERMINISTIC_STATS
    }


def _sample_dicts(samples):
    return [
        {"time": s.time, "reachable": s.reachable_bytes, "objects": s.object_count}
        for s in samples
    ]


def _run(engine_cls, program, args, max_heap=None, profiled=False, interval=65536):
    profiler = HeapProfiler(interval_bytes=interval) if profiled else None
    vm = engine_cls(program, max_heap=max_heap, profiler=profiler)
    result = vm.run(list(args))
    return result, profiler


def _assert_results_equal(base, comp):
    assert comp.stdout == base.stdout
    assert comp.instructions == base.instructions
    assert comp.clock == base.clock
    assert comp.finalizer_errors == base.finalizer_errors
    assert _stats_dict(comp.heap_stats) == _stats_dict(base.heap_stats)


def _assert_profiles_equal(base_prof, comp_prof):
    assert [r.to_dict() for r in comp_prof.records] == [
        r.to_dict() for r in base_prof.records
    ]
    assert _sample_dicts(comp_prof.samples) == _sample_dicts(base_prof.samples)
    assert comp_prof.record_count == base_prof.record_count
    assert comp_prof.sample_count == base_prof.sample_count
    assert comp_prof.finalizer_errors == base_prof.finalizer_errors


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_unprofiled_equivalence(name):
    bench = all_benchmarks()[name]
    args = bench.args_for("primary")
    base, _ = _run(
        Interpreter, compile_benchmark(bench, revised=False), args, bench.max_heap
    )
    comp, _ = _run(
        CompiledInterpreter,
        compile_benchmark(bench, revised=False),
        args,
        bench.max_heap,
    )
    _assert_results_equal(base, comp)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_profiled_equivalence(name):
    bench = all_benchmarks()[name]
    args = bench.args_for("primary")
    # Each run compiles its own program: VM-internal allocation sites
    # (make_throwable) are registered lazily in the program's site
    # table, so sharing one program across runs would skew site ids.
    base, base_prof = _run(
        Interpreter,
        compile_benchmark(bench, revised=False),
        args,
        bench.max_heap,
        profiled=True,
    )
    comp, comp_prof = _run(
        CompiledInterpreter,
        compile_benchmark(bench, revised=False),
        args,
        bench.max_heap,
        profiled=True,
    )
    _assert_results_equal(base, comp)
    _assert_profiles_equal(base_prof, comp_prof)


# ---------------------------------------------------------------------------
# Example programs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("filename,main_class,args", EXAMPLE_PROGRAMS)
def test_example_program_equivalence(filename, main_class, args):
    source = (EXAMPLES_DIR / filename).read_text(encoding="utf-8")

    def fresh_program():
        return compile_program(link(source), main_class=main_class)

    base, base_prof = _run(Interpreter, fresh_program(), args, profiled=True)
    comp, comp_prof = _run(CompiledInterpreter, fresh_program(), args, profiled=True)
    _assert_results_equal(base, comp)
    _assert_profiles_equal(base_prof, comp_prof)


def test_all_example_programs_are_covered():
    """Every .mj under examples/programs must be in EXAMPLE_PROGRAMS."""
    on_disk = sorted(p.name for p in EXAMPLES_DIR.glob("*.mj"))
    covered = sorted(name for name, _, _ in EXAMPLE_PROGRAMS)
    assert on_disk == covered


# ---------------------------------------------------------------------------
# Log byte-identity: both engines must produce the same v1 and v2 files
# ---------------------------------------------------------------------------


class _V1Lines(BufferSink):
    """Writes, at close, the JSON record lines a v1 log holds. Nothing
    writes v1 logs any more; their record form stays under the proof."""

    def __init__(self, path: Path) -> None:
        super().__init__()
        self.path = path

    def close(self) -> None:
        self.path.write_text(
            "".join(json.dumps(r.to_dict()) + "\n" for r in self.records)
        )


def log_sink(path: Path, fmt: str):
    """A sink writing ``path`` as a v2 log, or for ``"v1"`` as v1 lines."""
    return _V1Lines(path) if fmt == "v1" else LogWriterSink(V2LogWriter(path))


@pytest.mark.parametrize("name", ["db", "euler"])
@pytest.mark.parametrize("fmt,suffix", [("v1", ".draglog"), ("v2", ".dlog2")])
def test_log_bytes_identical(tmp_path, name, fmt, suffix):
    bench = all_benchmarks()[name]
    args = bench.args_for("primary")
    paths = {}
    for engine in ("baseline", "compiled"):
        path = tmp_path / f"{name}-{engine}{suffix}"
        sink = log_sink(path, fmt)
        profiler = HeapProfiler(interval_bytes=65536, sink=sink)
        vm = create_vm(
            compile_benchmark(bench, revised=False),
            engine=engine,
            max_heap=bench.max_heap,
            profiler=profiler,
        )
        vm.run(list(args))
        sink.close()
        paths[engine] = path
    assert paths["baseline"].read_bytes() == paths["compiled"].read_bytes()


@pytest.mark.parametrize("name", ["db", "euler"])
def test_last_use_chain_log_bytes_identical(tmp_path, name):
    """At ``last_use_depth > 1`` every use also captures the caller
    chain; the compiled engine's inline stamp must capture exactly the
    chain ``HeapProfiler.on_use`` does, byte for byte in the v2 log."""
    from repro.stream.codec import read_v2_log

    bench = all_benchmarks()[name]
    args = bench.args_for("primary")
    paths = {}
    for engine in ("baseline", "compiled"):
        path = tmp_path / f"{name}-{engine}.dlog2"
        sink = LogWriterSink(V2LogWriter(path))
        profiler = HeapProfiler(interval_bytes=65536, last_use_depth=3, sink=sink)
        vm = create_vm(
            compile_benchmark(bench, revised=False),
            engine=engine,
            max_heap=bench.max_heap,
            profiler=profiler,
        )
        vm.run(list(args))
        sink.close()
        paths[engine] = path
    assert paths["baseline"].read_bytes() == paths["compiled"].read_bytes()
    chains = [r.last_use_chain for r in read_v2_log(paths["compiled"]).records]
    assert any(chain and len(chain) > 1 for chain in chains), "no chain captured"


def test_engines_registry_covers_this_suite():
    """If a third engine is ever registered it must be added here."""
    assert set(ENGINES) == {"baseline", "compiled"}
