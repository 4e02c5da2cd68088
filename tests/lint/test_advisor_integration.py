"""The unverified optimization pipeline and the linter share one
analysis core.

Pins the two contracts:

* one unverified cycle's summary on db and euler is byte-identical to
  a golden — consulting lint diagnostics changes no decision, and the
  heap-liveness planner's patches/coverage notes are pinned exactly;
  the cycle's shared AnalysisContext compiles and builds the call
  graph exactly once, appliers included;
* everything the cycle acts on (dead-code removals, nulled locals,
  cleared arrays) appears among the lint findings — the static path is
  a superset of the profile-driven one.

The file and test names keep the ids they had when these goldens
pinned the Advisor's report, which the cycle summary reproduces
character for character.
"""

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.lint import lint_program
from repro.lint.passes import AnalysisContext
from repro.runtime.library import link
from repro.transform import OptimizationPipeline, Patch, apply_patch

# Golden summaries for the deterministic interpreter (same profiler,
# same inputs). The heap-liveness planner cracks db's pattern-4 groups
# that the pre-heap optimizer could only skip: the former "no
# transformation for this pattern" rows now carry heap patches or
# name the heap patch that covers them.
GOLDEN = {
    "db": """\
APPLIED  dead-code-removal  Locale.<init>:326                        13 allocation(s) removed
APPLIED  heap-assign-null   Db.main:70                               db.index = null inserted after Db.main:70
APPLIED  heap-assign-null   Db.main:70                               db.records = null inserted after Db.main:70
APPLIED  heap-assign-null   Vector.add:176                           1 dead heap store(s) now store null
skipped  heap-assign-null   ('DbRecord.<init>:8', 'Db.main:40')      pattern-4 drag released by heap-level patch(es) covering Db.main:40, DbRecord.<init>:8
APPLIED  assign-null        ('Db.main:66',)                          resultSet = null inserted after Db.main:68
skipped  -                  ('Db.main:60',)                          no transformation for this pattern (§3.4 pattern 4/unclassified)
skipped  heap-assign-null   ('Db.main:40',)                          pattern-4 drag released by heap-level patch(es) covering Db.main:40
skipped  heap-assign-null   ('HashTable.put:248', 'Database.insert:26', 'Db.main:40') pattern-4 drag released by heap-level patch(es) covering Db.main:40, HashTable.put:248
APPLIED  assign-null        ('Vector.ensureCapacity:213', 'Vector.add:175', 'Database.insert:25', 'Db.main:40') array liveness: cleared slots of [('data', 'count')] in Vector""",
    "euler": """\
APPLIED  dead-code-removal  Locale.<init>:326                        13 allocation(s) removed
APPLIED  heap-assign-null   Euler.main:79                            solver.grid = null inserted after Euler.main:79
skipped  assign-null        ('Row.<init>:7', 'Solver.<init>:41', 'Euler.main:70') no local variable assigned at Row.<init>:7
skipped  assign-null        ('Flux.<init>:21', 'Solver.step:61', 'Euler.main:74') no local variable assigned at Flux.<init>:21""",
}


def run_cycle(name):
    bench = get_benchmark(name)
    program = link(bench.original)
    context = AnalysisContext(program, bench.main_class)
    pipeline = OptimizationPipeline(
        program, bench.main_class, bench.primary_args,
        interval_bytes=bench.interval_bytes, verify=False,
    )
    return context, pipeline.run_cycle(program, context=context)


@pytest.mark.parametrize("name", ["db", "euler"])
def test_advisor_report_identical_to_golden(name):
    context, cycle = run_cycle(name)
    assert cycle.summary() == GOLDEN[name]
    # the shared context built each expensive artifact exactly once
    # across every site decision and the first patch's application
    counts = context.build_counts
    assert counts.get("compile") == 1
    assert counts.get("table") == 1
    assert counts.get("callgraph", 0) <= 1


@pytest.mark.parametrize("name", ["db", "euler"])
def test_lint_findings_superset_of_advisor_actions(name):
    bench = get_benchmark(name)
    program = link(bench.original)
    lint = lint_program(program, bench.main_class)

    # the dead-code applier removes something, and every never-used
    # candidate it acts on has a DRAG001 finding
    context = AnalysisContext(program, bench.main_class)
    _, detail = apply_patch(
        program,
        Patch("dead-code-removal", "remove-dead-allocations",
              {"main_class": bench.main_class}),
        context,
    )
    assert int(detail.split()[0]) > 0, detail
    dead = context.interproc.dead
    for cls, field in dead.dead_fields | dead.dead_statics:
        assert lint.find("DRAG001", "field", cls, field), (cls, field)
    for qualified, names in dead.dead_locals.items():
        cls, _, method = qualified.partition(".")
        for var in names:
            assert lint.find("DRAG001", "local", cls, method, var), (qualified, var)
    for cls, (line, _col, _kind) in dead.array_store_sigs:
        assert lint.find("DRAG001", "array-store", cls, line), (cls, line)

    # every applied assign-null has a DRAG002 finding
    _, cycle = run_cycle(name)
    for outcome in cycle.applied():
        if outcome.patch.strategy != "assign-null":
            continue
        if "array liveness" in outcome.detail:
            # "... cleared slots of [('data', 'count')] in Cls"
            cls = outcome.detail.rsplit(" in ", 1)[1]
            assert lint.find("DRAG002", "array", cls), outcome.detail
        else:
            # "var = null inserted after Cls.method:line"
            var = outcome.detail.split(" = null", 1)[0]
            frame = outcome.detail.rsplit(" after ", 1)[1]
            cls, _, rest = frame.partition(".")
            method = rest.rsplit(":", 1)[0]
            assert lint.find("DRAG002", "local", cls, method, var), outcome.detail
