"""End-to-end pipeline tests: verified application, dry-run planning,
and the differential-rollback safety net (an unsound patch must be
detected, rolled back, and surfaced — not silently shipped)."""

from repro.mjava.pretty import pretty_print
from repro.runtime.library import link
from repro.transform import APPLIERS, OptimizationPipeline, run_reference
from repro.transform import apply as apply_module
from repro.transform.patch import Patch

INTERVAL = 4 * 1024

MIXED = """
class Report {
    Vector lines;
    int used;
    Report(int used) {
        this.used = used;
        lines = new Vector(500);
    }
    int flush() {
        if (used > 0) { lines.add("line"); return lines.size(); }
        return 0;
    }
}
class Main {
    public static void main(String[] args) {
        int total = 0;
        for (int i = 0; i < 30; i = i + 1) {
            int flag = 0;
            if (i == 7) { flag = 1; }
            Report r = new Report(flag);
            total = total + r.flush();
            pad();
        }
        char[] wasted = new char[4000];
        System.printInt(total);
    }
    static void pad() {
        for (int k = 0; k < 20; k = k + 1) { char[] junk = new char[64]; }
    }
}
"""

# ``data`` stays live across warm(): nulling it after warm() crashes
# the final read. The rollback test injects exactly that unsound patch.
LIVE = """
class Main {
    public static void main(String[] args) {
        int total = 0;
        for (int i = 0; i < 6; i = i + 1) { total = total + step(); }
        System.printInt(total);
    }
    static int step() {
        char[] data = new char[3000];
        data[0] = 'x';
        warm();
        return data.length;
    }
    static void warm() {
        for (int k = 0; k < 20; k = k + 1) { char[] pad = new char[80]; }
    }
}
"""


def line_of(source, needle):
    for number, text in enumerate(source.splitlines(), 1):
        if needle in text:
            return number
    raise AssertionError(f"{needle!r} not in fixture")


def install_unchecked_assign_null(monkeypatch):
    """Register a deliberately unsound applier: the real null insertion
    with its §5.1 liveness proof switched off, leaving differential
    verification as the only net."""
    sound = APPLIERS["assign-null-local"]

    def unchecked(program, patch, context):
        with monkeypatch.context() as patched:
            patched.setattr(apply_module, "null_insertion_blocker", lambda *args: None)
            return sound(program, patch, context)

    monkeypatch.setitem(APPLIERS, "unchecked-assign-null", unchecked)


def unsound_patch():
    return Patch(
        strategy="assign-null",
        kind="unchecked-assign-null",
        params={
            "class_name": "Main",
            "method_name": "step",
            "var_name": "data",
            "lines": (line_of(LIVE, "warm();"),),
        },
        rationale="deliberately unsound: data is read after warm()",
        replacement="data = null;",
    )


def test_verified_pipeline_applies_and_reduces_drag():
    program = link(MIXED)
    pipeline = OptimizationPipeline(
        program, "Main", interval_bytes=INTERVAL, verify=True
    )
    result = pipeline.run()
    applied = result.applied()
    assert applied, result.cycles[0].describe_plan()
    # Every applied patch carries a passing differential verification.
    for outcome in applied:
        assert outcome.verification is not None
        assert outcome.verification.ok
        assert outcome.verification.stdout_ok
        assert outcome.verification.drag_ok
    assert result.drag_after is not None
    assert result.drag_after < result.drag_before
    # Independent check: the final revision is stdout-identical.
    original = run_reference(program, "Main", [], INTERVAL, None)
    revised = run_reference(result.revised, "Main", [], INTERVAL, None)
    assert revised.stdout == original.stdout
    assert revised.total_drag < original.total_drag


def test_dry_run_plans_without_applying():
    program = link(MIXED)
    pipeline = OptimizationPipeline(program, "Main", interval_bytes=INTERVAL)
    before = pretty_print(program)
    cycle = pipeline.plan()
    assert cycle.patches, cycle.describe_plan()
    assert all(o.status == "planned" for o in cycle.outcomes)
    assert cycle.revised is program
    assert pretty_print(program) == before
    plan_text = cycle.describe_plan()
    assert "1." in plan_text


def test_unsound_patch_is_rolled_back(monkeypatch):
    install_unchecked_assign_null(monkeypatch)
    program = link(LIVE)
    unsound = unsound_patch()
    pipeline = OptimizationPipeline(
        program,
        "Main",
        interval_bytes=INTERVAL,
        verify=True,
        extra_patches=[unsound],
    )
    result = pipeline.run()
    # The unsound patch was applied, caught by differential
    # verification, rolled back, and surfaced in the report.
    rolled = result.rolled_back()
    assert len(rolled) == 1
    outcome = rolled[0]
    assert outcome.patch is unsound
    assert outcome.status == "rolled-back"
    assert outcome.verification is not None and not outcome.verification.ok
    assert "rolled back" in outcome.detail
    # Nulling a live reference crashes the revised run (NPE) or changes
    # stdout; either way verification must say why.
    assert ("failed to run" in outcome.verification.detail
            or "stdout" in outcome.verification.detail)
    # The shipped revision excludes the unsound rewrite: it still runs
    # and prints the original output.
    original = run_reference(program, "Main", [], INTERVAL, None)
    revised = run_reference(result.revised, "Main", [], INTERVAL, None)
    assert revised.stdout == original.stdout
    # Sound patches in the same cycle are unaffected by the rollback.
    for outcome in result.applied():
        assert outcome.verification.ok


def test_unverified_pipeline_would_ship_the_unsound_patch(monkeypatch):
    """Control for the rollback test: with verify=False the same patch
    lands in the revision — verification is what catches it."""
    install_unchecked_assign_null(monkeypatch)
    program = link(LIVE)
    unsound = unsound_patch()
    pipeline = OptimizationPipeline(
        program,
        "Main",
        interval_bytes=INTERVAL,
        verify=False,
        extra_patches=[unsound],
    )
    result = pipeline.run()
    assert any(o.patch is unsound for o in result.applied())
    assert "data = null;" in pretty_print(result.revised)


def test_fixpoint_stops_when_no_patch_applies():
    source = """
    class Main {
        public static void main(String[] args) {
            System.printInt(7);
        }
    }
    """
    program = link(source)
    pipeline = OptimizationPipeline(
        program, "Main", interval_bytes=INTERVAL, verify=True, max_cycles=4
    )
    result = pipeline.run()
    # The loop exits the first time a cycle applies nothing, well
    # before the cycle cap (cycle 1 may still strip never-used library
    # initializers, so the fixpoint lands by cycle 2).
    assert len(result.cycles) < 4
    assert result.cycles[-1].applied_count == 0
    assert all(c.applied_count > 0 for c in result.cycles[:-1])


def test_fixpoint_converges_under_max_cycles():
    program = link(MIXED)
    pipeline = OptimizationPipeline(
        program, "Main", interval_bytes=INTERVAL, verify=True, max_cycles=3
    )
    result = pipeline.run()
    assert 1 <= len(result.cycles) <= 3
    # The loop only stops early at a fixpoint (or at the cycle cap).
    if len(result.cycles) < 3:
        assert result.cycles[-1].applied_count == 0
    # Cycle reports chain: each later cycle starts from the previous
    # revision, and total drag never increases across accepted cycles.
    drags = [c.drag_after for c in result.cycles if c.drag_after is not None]
    assert all(b <= a for a, b in zip(drags, drags[1:]))
