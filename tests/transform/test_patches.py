"""Per-strategy planner unit tests: each §3.3 strategy, run on a
fixture that exercises its lifetime pattern, must emit a structured
Patch with the right kind, span, params, rationale, and originating
lint diagnostics — the plan half of the plan/apply split."""

from repro.core.patterns import LifetimePattern
from repro.mjava.pretty import pretty_print
from repro.runtime.library import link
from repro.transform import OptimizationPipeline, apply_patches
from repro.transform.patch import Patch, PatchOutcome, PlannedSkip, describe_plan

INTERVAL = 4 * 1024

# Mixed workload: a sometimes-used ctor collection plus never-used
# buffers (same fixture the pipeline tests use).
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

# A large local buffer dead after its fill — the §3.3.1 assign-null case.
BUFFER = """
class Main {
    public static void main(String[] args) {
        for (int i = 0; i < 10; i = i + 1) { cycle(); }
    }
    static void cycle() {
        char[] buffer = new char[5000];
        fill(buffer);
        crunch();
    }
    static void fill(char[] b) {
        for (int i = 0; i < b.length; i = i + 1) { b[i] = 'x'; }
    }
    static void crunch() {
        for (int i = 0; i < 40; i = i + 1) { char[] tmp = new char[100]; }
    }
}
"""

# A ctor-assigned collection used on only ~1 in 8 iterations: enough
# uses to dodge ALL_NEVER_USED (>= 0.95) but mostly never used
# (>= 0.50) — the §3.3.3 lazy-allocation case.
LAZY = """
class NfaState {
    Vector epsilon;
    int hot;
    NfaState(int hot) {
        this.hot = hot;
        epsilon = new Vector(300);
    }
    int touch() {
        if (hot > 0) { epsilon.add("e"); return epsilon.size(); }
        return 0;
    }
}
class Main {
    public static void main(String[] args) {
        int total = 0;
        for (int i = 0; i < 40; i = i + 1) {
            int hot = 0;
            if (i % 8 == 3) { hot = 1; }
            NfaState s = new NfaState(hot);
            total = total + s.touch();
            pad();
        }
        System.printInt(total);
    }
    static void pad() {
        for (int k = 0; k < 20; k = k + 1) { char[] junk = new char[64]; }
    }
}
"""


def plan(source):
    program = link(source)
    pipeline = OptimizationPipeline(program, "Main", interval_bytes=INTERVAL)
    return program, pipeline.plan()


def by_kind(cycle, kind):
    return [p for p in cycle.patches if p.kind == kind]


def test_dead_code_planner_emits_program_wide_patch():
    _, cycle = plan(MIXED)
    patches = by_kind(cycle, "remove-dead-allocations")
    assert len(patches) == 1
    patch = patches[0]
    assert patch.strategy == "dead-code-removal"
    assert patch.priority == 0  # scheduled before every per-site patch
    assert patch.pattern is LifetimePattern.ALL_NEVER_USED
    assert patch.drag > 0
    # Self-contained params: the main class (the applier proves the
    # candidates on the AST it rewrites) and the never-used sites the
    # summary expands it to.
    assert set(patch.params) == {"main_class", "sites"}
    assert patch.params["main_class"] == "Main"
    assert any("Main." in str(site) for site in patch.params["sites"])
    # Span anchors the top never-used site.
    assert patch.span is not None and patch.span.line > 0
    assert "never used" in patch.rationale
    # Every originating diagnostic is a DRAG001 ref; the never-used
    # local must be among them.
    assert patch.diagnostics
    assert all(ref.startswith("DRAG001@") for ref in patch.diagnostics)
    assert any("junk" in ref or "wasted" in ref for ref in patch.diagnostics)


def test_assign_null_planner_targets_anchor_local():
    _, cycle = plan(BUFFER)
    patches = by_kind(cycle, "assign-null-local")
    assert len(patches) == 1
    patch = patches[0]
    assert patch.strategy == "assign-null"
    assert patch.pattern is LifetimePattern.LARGE_DRAG
    assert patch.params["class_name"] == "Main"
    assert patch.params["method_name"] == "cycle"
    assert patch.params["var_name"] == "buffer"
    assert patch.params["lines"], "planner must carry liveness-safe lines"
    assert patch.span is not None and patch.span.class_name == "Main"
    assert "liveness" in patch.rationale
    assert patch.replacement == "buffer = null;"


def test_lazy_planner_requires_drag003_and_names_field():
    _, cycle = plan(LAZY)
    patches = by_kind(cycle, "lazy-alloc-field")
    assert len(patches) == 1
    patch = patches[0]
    assert patch.strategy == "lazy-allocation"
    assert patch.pattern is LifetimePattern.MOSTLY_NEVER_USED
    assert patch.params == {
        "class_name": "NfaState",
        "field_name": "epsilon",
        "main_class": "Main",
    }
    # The span and diagnostics come from the DRAG003 finding that
    # proves the §3.3.3 preconditions.
    assert patch.diagnostics == ("DRAG003@NfaState.<init>:7(field,NfaState,epsilon)",)
    assert patch.span.label == "NfaState.<init>:7"
    assert "lazyInit_epsilon" in patch.replacement


def test_planned_patches_apply_purely():
    """apply_patches builds a new program and leaves the input AST
    untouched — the pure-applier contract."""
    program, cycle = plan(MIXED)
    before = pretty_print(program)
    revised = apply_patches(program, cycle.patches)
    assert revised is not program
    assert pretty_print(program) == before
    assert pretty_print(revised) != before


def test_patch_describe_and_dict_round_trip():
    _, cycle = plan(BUFFER)
    patch = by_kind(cycle, "assign-null-local")[0]
    text = patch.describe()
    assert "assign-null" in text and "buffer = null;" in text
    data = patch.to_dict()
    assert data["kind"] == "assign-null-local"
    assert data["span"] == patch.span.label
    assert data["diagnostics"] == list(patch.diagnostics)
    assert data["pattern"] == "LARGE_DRAG"


def test_describe_plan_renders_patches_and_skips():
    span_text = describe_plan(
        [
            PatchOutcome(Patch("s", "k", {}, site="A.m:1", drag=10)),
            PlannedSkip("B.n:2", None, "lazy-allocation", "why not"),
        ]
    )
    assert "1. s [k] @ A.m:1" in span_text
    assert "-  skip lazy-allocation @ B.n:2: why not" in span_text
    assert describe_plan([]) == "(no patches planned)"
