"""The profile-driven optimizer, unverified: end-to-end automatic drag
reduction from one profile→plan→apply cycle."""

from repro.core import profile_program
from repro.mjava.compiler import compile_program
from repro.runtime.library import link
from repro.transform import OptimizationPipeline


def optimize(program, main_class, interval_bytes):
    """One unverified cycle; returns (revised program, cycle report)."""
    result = OptimizationPipeline(
        program, main_class, interval_bytes=interval_bytes, verify=False
    ).run()
    return result.revised, result.cycles[0]


def drags(program_ast, args=(), interval=4 * 1024):
    profile = profile_program(
        compile_program(program_ast, main_class="Main"), list(args), interval_bytes=interval
    )
    return profile


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


def test_advisor_applies_transformations_and_saves_space():
    program = link(MIXED)
    revised, report = optimize(program, "Main", interval_bytes=4 * 1024)
    applied = {o.patch.strategy for o in report.applied()}
    assert "dead-code-removal" in applied or "lazy-allocation" in applied

    orig = drags(program)
    revd = drags(revised)
    assert orig.run_result.stdout == revd.run_result.stdout
    orig_reach = sum(r.drag for r in orig.records)
    revd_reach = sum(r.drag for r in revd.records)
    assert revd_reach < orig_reach


def test_advisor_lazy_allocates_ctor_collections():
    program = link(MIXED)
    revised, report = optimize(program, "Main", interval_bytes=4 * 1024)
    lazy = [o for o in report.applied() if o.patch.strategy == "lazy-allocation"]
    if lazy:  # pattern thresholds may route Vector's array to lazy or dead-code
        assert any("Report" in o.detail for o in lazy)
    summary = report.summary()
    assert "APPLIED" in summary


def test_advisor_nulls_dead_local_buffers():
    source = """
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
    program = link(source)
    revised, report = optimize(program, "Main", interval_bytes=4 * 1024)
    nulls = [o for o in report.applied() if o.patch.strategy == "assign-null"]
    assert nulls, report.summary()
    orig = drags(program)
    revd = drags(revised)
    assert orig.run_result.stdout == revd.run_result.stdout
    big = lambda p: sum(r.drag for r in p.records if r.size > 4000)
    assert big(revd) < big(orig) * 0.7


def test_advisor_leaves_db_style_repository_alone():
    """Pattern 4 (high variance): no transformation applies."""
    source = """
    class Main {
        static Object[] repo = new Object[50];
        public static void main(String[] args) {
            for (int i = 0; i < 50; i = i + 1) { repo[i] = new char[600]; }
            Random r = new Random(3);
            for (int q = 0; q < 40; q = q + 1) {
                Object hit = repo[r.nextInt(50)];
                hit.hashCode();
                pad();
            }
        }
        static void pad() {
            for (int k = 0; k < 10; k = k + 1) { char[] junk = new char[64]; }
        }
    }
    """
    program = link(source)
    revised, report = optimize(program, "Main", interval_bytes=2 * 1024)
    orig = drags(program, interval=2 * 1024)
    revd = drags(revised, interval=2 * 1024)
    assert orig.run_result.stdout == revd.run_result.stdout
    # Repository entries must all still be allocated and survive to the
    # end in the revised run (drag *values* shrink in any revised run
    # because removing other allocations compresses the byte-time axis).
    def surviving_repo_entries(p):
        return sum(
            1
            for r in p.records
            if r.type_name == "char[]" and r.size > 1100 and r.survived_to_end
        )

    assert surviving_repo_entries(revd) == surviving_repo_entries(orig) == 50
