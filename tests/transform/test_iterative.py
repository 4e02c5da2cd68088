"""Iterative profile→rewrite cycles (§3.2): a second profiling pass can
reveal opportunities the first pass's noise hid."""

from repro.core import profile_program
from repro.mjava.compiler import compile_program
from repro.runtime.library import link
from repro.transform import OptimizationPipeline


def optimize_iteratively(program, main_class, interval_bytes, max_cycles=4):
    """Unverified cycles to the fixpoint; returns (revised, cycle reports)."""
    result = OptimizationPipeline(
        program, main_class, interval_bytes=interval_bytes,
        max_cycles=max_cycles, verify=False,
    ).run()
    return result.revised, result.cycles

# The never-used 'forgotten' buffer dominates round 1; once removed the
# dragging 'buffer' local becomes the top site for round 2.
SOURCE = """
class Main {
    public static void main(String[] args) {
        char[] forgotten = new char[30000];
        for (int round = 0; round < 12; round = round + 1) {
            work(round);
        }
        System.println("done");
    }
    static void work(int round) {
        char[] buffer = new char[4000];
        for (int i = 0; i < buffer.length; i = i + 16) {
            buffer[i] = (char) ('a' + (round + i) % 26);
        }
        churn();
    }
    static void churn() {
        for (int i = 0; i < 30; i = i + 1) { char[] tmp = new char[100]; }
    }
}
"""


def total_drag(program_ast):
    profile = profile_program(
        compile_program(program_ast, main_class="Main"), [], interval_bytes=4096
    )
    return sum(r.drag for r in profile.records), profile.run_result.stdout


def test_iteration_converges_and_preserves_output():
    program = link(SOURCE)
    revised, reports = optimize_iteratively(program, "Main", interval_bytes=4096)
    assert 1 <= len(reports) <= 4
    # the final cycle applied nothing (fixpoint) unless the cap hit
    if len(reports) < 4:
        assert not reports[-1].applied()
    before, out_before = total_drag(link(SOURCE))
    after, out_after = total_drag(revised)
    assert out_before == out_after
    assert after < before


def test_multiple_cycles_apply_different_transformations():
    program = link(SOURCE)
    revised, reports = optimize_iteratively(program, "Main", interval_bytes=4096)
    applied = [o.patch.strategy for r in reports for o in r.applied()]
    assert "dead-code-removal" in applied
    assert "assign-null" in applied


def test_zero_cycle_program_untouched():
    source = """
    class Main {
        public static void main(String[] args) { System.println("hi"); }
    }
    """
    program = link(source)
    revised, reports = optimize_iteratively(program, "Main", interval_bytes=4096)
    assert len(reports) >= 1
