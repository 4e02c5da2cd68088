"""--profile mode: lint findings ranked by the drag the profiler
actually measured, agreeing with DragAnalysis site totals."""

import pytest

from repro.core.analyzer import DragAnalysis
from repro.core.logfile import read_log
from repro.stream.codec import V2LogWriter
from repro.core.profiler import profile_program
from repro.lint import lint_program
from repro.mjava.compiler import compile_program
from repro.runtime.library import link

# Two drag sources with very different weights: a large never-read
# buffer that lives to the end of main, and a small one dropped early.
SOURCE = """
class Main {
    public static void main(String[] args) {
        char[] big = new char[6000];
        big[0] = 'a';
        int x = big[0];
        char[] little = new char[40];
        little[0] = 'b';
        int y = little[0];
        churn();
        System.printInt(x + y);
    }
    static void churn() {
        for (int i = 0; i < 40; i = i + 1) { char[] junk = new char[64]; }
    }
}
"""


@pytest.fixture(scope="module")
def profiled():
    program_ast = link(SOURCE)
    compiled = compile_program(program_ast, main_class="Main")
    profile = profile_program(compiled, [], interval_bytes=2 * 1024)
    return program_ast, profile


def test_correlation_copies_site_drag_totals(profiled):
    program_ast, profile = profiled
    analysis = DragAnalysis(profile.records)
    result = lint_program(program_ast, "Main")
    result.correlate(analysis)
    correlated = [d for d in result.diagnostics if d.drag is not None]
    assert correlated, "expected at least one finding to match a profiled site"
    for diag in correlated:
        labels = [diag.span.label] + list(diag.extra.get("alt_labels", ()))
        totals = [
            analysis.by_site[label].total_drag
            for label in labels
            if label in analysis.by_site
        ]
        assert diag.drag == totals[0]
        assert diag.drag_share == pytest.approx(
            diag.drag / analysis.total_drag
        )


def test_correlation_ranks_findings_like_drag_analysis(profiled):
    program_ast, profile = profiled
    analysis = DragAnalysis(profile.records)
    result = lint_program(program_ast, "Main")
    result.correlate(analysis)
    # among findings of equal severity, measured drag decides the order
    ordered = result.sorted()
    for earlier, later in zip(ordered, ordered[1:]):
        if earlier.severity == later.severity:
            assert (earlier.drag or 0) >= (later.drag or 0)
    # and the per-site ordering matches DragAnalysis's own ranking
    correlated = [d for d in ordered if d.drag is not None]
    site_rank = {g.key: i for i, g in enumerate(analysis.sorted_sites())}

    def rank_of(diag):
        labels = [diag.span.label] + list(diag.extra.get("alt_labels", ()))
        return min(site_rank[l] for l in labels if l in site_rank)

    same_severity = [d for d in correlated if d.severity == "warning"]
    ranks = [rank_of(d) for d in same_severity]
    assert ranks == sorted(ranks)


def test_correlation_through_a_written_log_roundtrip(profiled, tmp_path):
    program_ast, profile = profiled
    path = tmp_path / "run.dlog2"
    writer = V2LogWriter(path)
    for record in profile.records:
        writer.write_record(record)
    writer.close(end_time=profile.end_time)
    loaded = read_log(path)
    analysis = DragAnalysis(loaded.records)
    direct = DragAnalysis(profile.records)

    result = lint_program(program_ast, "Main")
    result.correlate(analysis, profile_path=str(path))
    assert result.profile_path == str(path)
    assert result.profile_total_drag == direct.total_drag
    for diag in result.diagnostics:
        if diag.drag is not None:
            label_totals = direct.by_site.get(diag.span.label)
            if label_totals is not None:
                assert diag.drag == label_totals.total_drag


def test_unprofiled_findings_keep_none_and_sort_last(profiled):
    program_ast, profile = profiled
    analysis = DragAnalysis(profile.records)
    result = lint_program(program_ast, "Main")
    result.correlate(analysis)
    ordered = result.sorted()
    by_severity = {}
    for diag in ordered:
        by_severity.setdefault(diag.severity, []).append(diag)
    for group in by_severity.values():
        seen_none = False
        for diag in group:
            if diag.drag is None:
                seen_none = True
            elif seen_none and diag.drag > 0:
                raise AssertionError(
                    "a measured finding sorted after an unmeasured one"
                )
