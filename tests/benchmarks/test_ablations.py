"""The §2.1.1 and §5.1 design ablations on the benchmark programs.

* A larger deep-GC interval yields less precise results: juru's
  measured drag grows with the interval, since every object's observed
  collection time comes later.
* The nesting depth trades accuracy for speed: at depth 1 jack's top
  nested drag sites are anonymous library lines; at depth 2 the chains
  reach the application constructor the paper's workflow needs.
* Liveness-aided GC roots (Agesen et al., the runtime alternative to
  assigning null) shrink juru's reachable heap with no source change.
"""

from repro.benchmarks import get_benchmark
from repro.benchmarks.runner import compile_benchmark
from repro.core import DragAnalysis
from repro.core.integrals import integral_mb2
from repro.core.profiler import HeapProfiler, profile_program
from repro.runtime.engine import create_vm


def _profile(name, **options):
    bench = get_benchmark(name)
    options.setdefault("interval_bytes", bench.interval_bytes)
    return profile_program(
        compile_benchmark(bench, revised=False), bench.primary_args, **options)


def test_juru_drag_grows_with_the_deep_gc_interval():
    drags = [
        sum(r.drag for r in _profile("juru", interval_bytes=kb * 1024).records)
        for kb in (4, 16, 64, 256)
    ]
    for previous, drag in zip(drags, drags[1:]):
        assert drag >= previous * 0.98, drags


def test_jack_nesting_depth_two_reaches_the_application():
    def anchored(depth):
        top = DragAnalysis(_profile("jack", nesting_depth=depth).records).sorted_nested(3)
        return sum(any("NfaBuilder" in frame for frame in g.key) for g in top)

    assert anchored(1) == 0
    assert anchored(2) >= 2


def test_liveness_aided_roots_shrink_juru_reachable_heap():
    bench = get_benchmark("juru")

    def reachable(liveness_roots):
        profiler = HeapProfiler(interval_bytes=bench.interval_bytes)
        create_vm(compile_benchmark(bench, revised=False), profiler=profiler,
                  liveness_roots=liveness_roots).run(bench.primary_args)
        return integral_mb2(profiler.records, "reachable")

    assert reachable(False) - reachable(True) > 0
