"""Array-element liveness, class hierarchy, indirect usage."""

from repro.analysis.array_liveness import logical_size_pairs, removal_points
from repro.analysis.callgraph import CallGraph
from repro.analysis.indirect_usage import indirectly_unused_fields
from repro.mjava.sema import ClassTable
from repro.runtime.library import link
from tests.conftest import compile_app


def table_of(source):
    return ClassTable(link(source))


# -- array liveness ------------------------------------------------------------


def test_vector_pattern_detected():
    """The library Vector is exactly the jess vector-like array."""
    table = table_of("class Dummy { }")
    pairs = logical_size_pairs(table, "Vector")
    assert ("data", "count") in pairs


def test_removal_points_are_the_decrements():
    table = table_of("class Dummy { }")
    points = removal_points(table, "Vector", ("data", "count"))
    assert any(method == "removeLast" for method, _ in points)


def test_unbounded_read_rejects_pair():
    table = table_of(
        """
        class Leaky {
            Object[] data;
            int count;
            Leaky() { data = new Object[8]; count = 0; }
            void pop() { count = count - 1; }
            Object peekRaw(int i) { return data[i]; }
        }
        """
    )
    assert logical_size_pairs(table, "Leaky") == []


def test_guarded_read_accepts_pair():
    table = table_of(
        """
        class Safe {
            Object[] data;
            int count;
            Safe() { data = new Object[8]; count = 0; }
            void pop() { count = count - 1; }
            Object peek(int i) {
                if (i < count) { return data[i]; }
                return null;
            }
            Object top() { return data[count - 1]; }
            void each() {
                for (int i = 0; i < count; i = i + 1) { data[i].hashCode(); }
            }
        }
        """
    )
    assert ("data", "count") in logical_size_pairs(table, "Safe")


def test_no_decrement_means_no_pair():
    table = table_of(
        """
        class GrowOnly {
            Object[] data;
            int count;
            GrowOnly() { data = new Object[8]; count = 0; }
            void add(Object o) { data[count] = o; count = count + 1; }
        }
        """
    )
    assert logical_size_pairs(table, "GrowOnly") == []


# -- hierarchy -------------------------------------------------------------------
# The class table owns the hierarchy; the call graph owns CHA's
# overrider families.


def test_hierarchy_children_and_subtree():
    table = table_of(
        """
        class A { }
        class B extends A { }
        class C extends A { }
        class D extends B { }
        """
    )
    assert sorted(table.subclasses_of("A")) == ["B", "C", "D"]
    assert table.get("D").super_name == "B"
    assert table.superclass_chain("D")[1:] == ["B", "A", "Object"]


def test_hierarchy_overriders():
    program = compile_app(
        """
        class A { int m() { return 1; } }
        class B extends A { int m() { return 2; } }
        class C extends A { }
        class Main { public static void main(String[] args) { } }
        """
    )
    assert CallGraph(program).family("m", 0) == (("A", "m"), ("B", "m"))
    assert program.lookup_method("C", "m").class_name == "A"


def test_exception_classes_rooted_at_throwable():
    table = table_of("class Dummy { }")
    assert "NullPointerException" in table.subclasses_of("Throwable")
    assert "OutOfMemoryError" in table.subclasses_of("Throwable")


# -- indirect usage ---------------------------------------------------------------


def test_javac_style_indirect_string():
    """§5.1's example: a field read only to copy into unused variables."""
    source = """
    class Unit {
        private String banner;
        private String copy;
        Unit() { banner = "x" + 1; }
        void snapshot() {
            String local = banner;
            copy = banner;
        }
    }
    class Main {
        public static void main(String[] args) {
            Unit u = new Unit();
            u.snapshot();
        }
    }
    """
    program = compile_app(source)
    indirect = indirectly_unused_fields(program)
    assert ("Unit", "banner") in indirect


def test_dereferenced_field_is_not_indirectly_unused():
    source = """
    class Unit {
        private String banner;
        Unit() { banner = "x" + 1; }
        int peek() { return banner.length(); }
    }
    class Main {
        public static void main(String[] args) { System.printInt(new Unit().peek()); }
    }
    """
    program = compile_app(source)
    assert ("Unit", "banner") not in indirectly_unused_fields(program)


def test_copy_to_used_local_blocks_indirect():
    source = """
    class Unit {
        private String banner;
        Unit() { banner = "x" + 1; }
        int use() {
            String local = banner;
            return local.length();
        }
    }
    class Main {
        public static void main(String[] args) { System.printInt(new Unit().use()); }
    }
    """
    program = compile_app(source)
    assert ("Unit", "banner") not in indirectly_unused_fields(program)
