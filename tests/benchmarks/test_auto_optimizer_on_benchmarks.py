"""The automatic optimizer versus the paper's manual rewrites, on the
actual benchmarks.

The paper's §5 claims most of its manual rewrites could be conducted by
an optimizing compiler. Here one unverified cycle of the §3.4
optimization pipeline runs on the *original* benchmark sources and must autonomously recover a meaningful share of
the hand-written revision's savings.
"""

import pytest

from repro.core import profile_program
from repro.core.integrals import savings
from repro.benchmarks import get_benchmark
from repro.benchmarks.runner import compile_benchmark
from repro.mjava.compiler import compile_program
from repro.mjava.parser import parse_program
from repro.mjava.pretty import pretty_print
from repro.runtime.library import link
from repro.transform import OptimizationPipeline


def auto_optimize(name):
    bench = get_benchmark(name)
    program = link(bench.original)
    result = OptimizationPipeline(
        program, bench.main_class, bench.primary_args,
        interval_bytes=bench.interval_bytes, verify=False,
    ).run()
    return bench, result.revised, result.cycles[0]


def measure(bench, program_ast):
    profile = profile_program(
        compile_program(program_ast, main_class=bench.main_class),
        bench.primary_args,
        interval_bytes=bench.interval_bytes,
    )
    return profile


def test_advisor_lazy_allocates_jack_collections():
    """§3.4.3 automated: the optimizer must find the three constructor
    collections and make them lazy, matching the manual rewrite."""
    bench, revised, report = auto_optimize("jack")
    lazy = [o for o in report.applied() if o.patch.strategy == "lazy-allocation"]
    assert len(lazy) >= 3, report.summary()
    assert all("NfaBuilder" in o.detail for o in lazy)
    text = pretty_print(revised)
    assert "lazyInit_expansion" in text
    assert "lazyInit_firstSet" in text
    assert "lazyInit_followSet" in text

    original = measure(bench, link(bench.original))
    auto = measure(bench, revised)
    assert original.run_result.stdout == auto.run_result.stdout
    row = savings(original.records, auto.records)
    manual_row = savings(
        original.records,
        measure(bench, link(bench.revised)).records,
    )
    # the automatic rewrite recovers most of the manual space saving
    assert row.space_saving_pct > 0.6 * manual_row.space_saving_pct, (
        row.space_saving_pct,
        manual_row.space_saving_pct,
    )


def test_advisor_nulls_juru_buffer():
    """§3.4.1 automated: assign-null on the indexing buffer."""
    bench, revised, report = auto_optimize("juru")
    nulls = [o for o in report.applied() if o.patch.strategy == "assign-null"]
    assert nulls, report.summary()
    assert any("buffer" in o.detail for o in nulls)
    text = pretty_print(revised)
    assert "buffer = null;" in text

    original = measure(bench, link(bench.original))
    auto = measure(bench, revised)
    assert original.run_result.stdout == auto.run_result.stdout
    row = savings(original.records, auto.records)
    assert row.drag_saving_pct > 15.0


def test_advisor_removes_raytrace_details():
    """§3.4.2 automated: dead-code removal of the 17 never-used sites.

    The Detail objects are only used inside their own constructors, the
    details array is never read (getDetail is call-graph-unreachable),
    and the constructors are pure — the §5 analyses license removal."""
    bench, revised, report = auto_optimize("raytrace")
    removed = [o for o in report.applied() if o.patch.strategy == "dead-code-removal"]
    assert removed, report.summary()

    original = measure(bench, link(bench.original))
    auto = measure(bench, revised)
    assert original.run_result.stdout == auto.run_result.stdout
    auto_details = [r for r in auto.records if r.type_name == "Detail"]
    assert auto_details == []


def test_advisor_leaves_db_unchanged_in_behaviour():
    bench, revised, report = auto_optimize("db")
    original = measure(bench, link(bench.original))
    auto = measure(bench, revised)
    assert original.run_result.stdout == auto.run_result.stdout
    # repository untouched: every record still allocated and retained
    count = lambda p: sum(1 for r in p.records if r.type_name == "DbRecord")
    assert count(auto) == count(original)
