"""Dead-code removal and lazy allocation appliers."""

import pytest

from repro.errors import TransformError
from repro.core import profile_program
from repro.lint.passes import AnalysisContext
from repro.mjava import ast
from repro.mjava.compiler import compile_program
from repro.mjava.pretty import pretty_print
from repro.runtime.interpreter import Interpreter
from repro.runtime.library import link
from repro.transform import Patch, apply_patch


def run_both(original_ast, revised_ast, args=()):
    orig = Interpreter(compile_program(original_ast, main_class="Main")).run(list(args))
    revd = Interpreter(compile_program(revised_ast, main_class="Main")).run(list(args))
    return orig, revd


def remove_dead_allocations(program, main_class):
    """Apply the program-wide dead-code patch; returns the revised
    program and the never-used candidates it acted on."""
    context = AnalysisContext(program, main_class)
    revised, _ = apply_patch(
        program,
        Patch("dead-code-removal", "remove-dead-allocations", {"main_class": main_class}),
        context,
    )
    return revised, context.interproc.dead


def lazy_allocate_field(program, class_name, field_name, main_class):
    revised, _ = apply_patch(
        program,
        Patch(
            "lazy-allocation",
            "lazy-alloc-field",
            {"class_name": class_name, "field_name": field_name, "main_class": main_class},
        ),
    )
    return revised


def local_decls(program, class_name, name):
    cls = program.find_class(class_name)
    return [
        node
        for method in cls.methods
        for node in method.body.walk()
        if isinstance(node, ast.VarDecl) and node.name == name
    ]


def allocations_in(program, class_name):
    return sum(
        isinstance(node, (ast.New, ast.NewArray))
        for node in program.find_class(class_name).walk()
    )


# -- dead-code removal ------------------------------------------------------------


def test_removes_never_used_local_allocation():
    source = """
    class Main {
        public static void main(String[] args) {
            char[] wasted = new char[1000];
            System.println("work");
        }
    }
    """
    program = link(source)
    revised, dead = remove_dead_allocations(program, "Main")
    assert "wasted" in dead.dead_locals["Main.main"]
    assert local_decls(program, "Main", "wasted")
    assert not local_decls(revised, "Main", "wasted")
    orig, revd = run_both(program, revised)
    assert orig.stdout == revd.stdout
    assert revd.heap_stats.bytes_allocated < orig.heap_stats.bytes_allocated


def test_removes_never_read_field_allocation():
    """The raytrace pattern: objects only touched by their constructor,
    stored in a field nobody reads."""
    source = """
    class Scene {
        private Object[] cache;
        Scene() { cache = new Object[200]; }
        public void render() { System.println("render"); }
    }
    class Main {
        public static void main(String[] args) {
            Scene s = new Scene();
            s.render();
        }
    }
    """
    program = link(source)
    revised, dead = remove_dead_allocations(program, "Main")
    assert ("Scene", "cache") in dead.dead_fields
    assert "cache = new Object[200];" in pretty_print(program)
    assert "cache = new Object[200];" not in pretty_print(revised)
    orig, revd = run_both(program, revised)
    assert orig.stdout == revd.stdout
    assert revd.heap_stats.bytes_allocated < orig.heap_stats.bytes_allocated


def test_removes_unread_locale_statics():
    """The jess JDK rewrite: unread Locale constants are dead code."""
    source = """
    class Main {
        public static void main(String[] args) { System.println("go"); }
    }
    """
    program = link(source)
    revised, dead = remove_dead_allocations(program, "Main")
    assert any(cls == "Locale" for cls, _ in dead.dead_statics)
    assert allocations_in(revised, "Locale") < allocations_in(program, "Locale")
    orig, revd = run_both(program, revised)
    assert orig.stdout == revd.stdout
    # all 12 Locale objects (and their display data) no longer allocated:
    # 12 x (instance + char[64] display data) is well over 1.5 KB
    assert orig.heap_stats.bytes_allocated - revd.heap_stats.bytes_allocated > 1500


def test_keeps_allocation_with_impure_ctor():
    source = """
    class Loud {
        Loud() { System.println("side effect!"); }
    }
    class Main {
        public static void main(String[] args) {
            Loud wasted = new Loud();
            System.println("done");
        }
    }
    """
    program = link(source)
    revised, _ = remove_dead_allocations(program, "Main")
    orig, revd = run_both(program, revised)
    assert orig.stdout == revd.stdout == ["side effect!", "done"]


def test_keeps_allocation_when_oom_is_handled():
    """§5.5: if the program can catch OutOfMemoryError, removing an
    allocation changes observable behaviour."""
    source = """
    class Main {
        public static void main(String[] args) {
            try {
                char[] wasted = new char[1000];
                System.println("ok");
            } catch (OutOfMemoryError e) {
                System.println("oom");
            }
        }
    }
    """
    program = link(source)
    context = AnalysisContext(program, "Main")
    assert context.interproc.dead.oom_handled
    # every allocation stays, so the applier has nothing to remove
    with pytest.raises(TransformError, match="0 allocation"):
        apply_patch(
            program,
            Patch("dead-code-removal", "remove-dead-allocations", {"main_class": "Main"}),
            context,
        )
    assert local_decls(program, "Main", "wasted")


def test_used_field_is_kept():
    source = """
    class Holder {
        Object thing;
        Holder() { thing = new Object(); }
        int probe() { return thing.hashCode(); }
    }
    class Main {
        public static void main(String[] args) {
            int h = new Holder().probe();
            System.println("ok");
        }
    }
    """
    program = link(source)
    revised, _ = remove_dead_allocations(program, "Main")
    orig, revd = run_both(program, revised)
    assert orig.stdout == revd.stdout == ["ok"]


def test_indirectly_unused_chain_removed():
    """§5.1 javac example: field only copied into unused variables."""
    source = """
    class Unit {
        private Object banner;
        private Object copy;
        Unit() { banner = new Object(); }
        void snapshot() { copy = banner; }
        void work() { System.println("w"); }
    }
    class Main {
        public static void main(String[] args) {
            Unit u = new Unit();
            u.snapshot();
            u.work();
        }
    }
    """
    program = link(source)
    revised, _ = remove_dead_allocations(program, "Main")
    orig, revd = run_both(program, revised)
    assert orig.stdout == revd.stdout
    assert revd.heap_stats.objects_allocated < orig.heap_stats.objects_allocated


# -- lazy allocation -----------------------------------------------------------------


JACK_STYLE = """
class Parser {
    Vector tokens;
    HashTable table1;
    HashTable table2;
    int mode;
    Parser(int mode) {
        this.mode = mode;
        tokens = new Vector(400);
        table1 = new HashTable(200);
        table2 = new HashTable(200);
    }
    public int parse() {
        if (mode > 0) {
            tokens.add("tok");
            return tokens.size();
        }
        return 0;
    }
}
class Main {
    public static void main(String[] args) {
        int total = 0;
        for (int i = 0; i < 20; i = i + 1) {
            int m = 0;
            if (i == 10) { m = 1; }
            Parser p = new Parser(m);
            total = total + p.parse();
        }
        System.printInt(total);
    }
}
"""


def test_lazy_allocation_preserves_output_and_saves_space():
    program = link(JACK_STYLE)
    revised = lazy_allocate_field(program, "Parser", "tokens", "Main")
    revised = lazy_allocate_field(revised, "Parser", "table1", "Main")
    revised = lazy_allocate_field(revised, "Parser", "table2", "Main")
    orig, revd = run_both(program, revised)
    assert orig.stdout == revd.stdout
    # 20 parsers, only one ever parses: 19 never allocate their collections
    assert revd.heap_stats.bytes_allocated < orig.heap_stats.bytes_allocated * 0.6


def test_lazy_allocation_source_shape():
    program = link(JACK_STYLE)
    revised = lazy_allocate_field(program, "Parser", "tokens", "Main")
    printed = pretty_print(revised)
    assert "lazyInit_tokens" in printed
    assert "if ((tokens == null))" in printed


def test_lazy_allocation_rejects_nonconstant_args():
    source = """
    class Box {
        Vector v;
        Box(int n) { v = new Vector(n); }
        int size() { return v.size(); }
    }
    class Main {
        public static void main(String[] args) { Box b = new Box(3); b.size(); }
    }
    """
    with pytest.raises(TransformError):
        lazy_allocate_field(link(source), "Box", "v", "Main")


def test_lazy_allocation_rejects_impure_ctor():
    source = """
    class Chatty { Chatty() { System.println("hi"); } }
    class Box {
        Chatty c;
        Box() { c = new Chatty(); }
        int probe() { return c.hashCode(); }
    }
    class Main {
        public static void main(String[] args) { Box b = new Box(); b.probe(); }
    }
    """
    with pytest.raises(TransformError):
        lazy_allocate_field(link(source), "Box", "c", "Main")


def test_lazy_allocation_rejects_multiple_inits():
    source = """
    class Box {
        Vector v;
        Box() { v = new Vector(4); }
        void reset() { v = new Vector(4); }
    }
    class Main {
        public static void main(String[] args) { Box b = new Box(); b.reset(); }
    }
    """
    with pytest.raises(TransformError):
        lazy_allocate_field(link(source), "Box", "v", "Main")


def test_lazy_allocation_rejects_oom_handler():
    source = """
    class Box {
        Vector v;
        Box() { v = new Vector(4); }
        int size() { return v.size(); }
    }
    class Main {
        public static void main(String[] args) {
            try { Box b = new Box(); System.printInt(b.size()); }
            catch (OutOfMemoryError e) { }
        }
    }
    """
    with pytest.raises(TransformError):
        lazy_allocate_field(link(source), "Box", "v", "Main")


def test_lazy_allocation_write_after_init_still_works():
    source = """
    class Box {
        Vector v;
        Box() { v = new Vector(4); }
        public void use() { v.add("x"); System.printInt(v.size()); }
    }
    class Main {
        public static void main(String[] args) {
            Box b = new Box();
            b.use();
            b.use();
        }
    }
    """
    program = link(source)
    revised = lazy_allocate_field(program, "Box", "v", "Main")
    orig, revd = run_both(program, revised)
    assert orig.stdout == revd.stdout == ["1", "2"]
