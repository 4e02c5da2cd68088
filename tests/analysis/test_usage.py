"""Usage analysis: written-never-read fields, visibility scoping."""

from repro.analysis.callgraph import CallGraph
from repro.analysis.usage import field_usage
from tests.conftest import compile_app


def test_static_written_never_read_is_found():
    source = """
    class Config {
        static Object wasted = new Object();
        static Object used = new Object();
    }
    class Main {
        public static void main(String[] args) { Config.used.hashCode(); }
    }
    """
    usage = field_usage(compile_app(source))
    dead = usage.written_never_read_statics()
    assert ("Config", "wasted") in dead
    assert ("Config", "used") not in dead


def test_locale_statics_found_as_never_read():
    """The paper's JDK example: unread Locale constants."""
    source = """
    class Main { public static void main(String[] args) { } }
    """
    usage = field_usage(compile_app(source))
    dead = dict.fromkeys(usage.written_never_read_statics())
    assert ("Locale", "ENGLISH") in dead
    assert ("Locale", "FRENCH") in dead


def test_locale_read_via_getstatic_counts():
    source = """
    class Main {
        public static void main(String[] args) {
            System.println(Locale.ENGLISH.getLanguage());
        }
    }
    """
    usage = field_usage(compile_app(source))
    dead = usage.written_never_read_statics()
    assert ("Locale", "ENGLISH") not in dead
    assert ("Locale", "FRENCH") in dead


def test_instance_field_written_never_read():
    source = """
    class Record {
        private String debugInfo;
        private int id;
        Record(int id) { this.id = id; this.debugInfo = "record " + id; }
        public int getId() { return id; }
    }
    class Main {
        public static void main(String[] args) {
            Record r = new Record(7);
            System.printInt(r.getId());
        }
    }
    """
    usage = field_usage(compile_app(source))
    dead = usage.written_never_read_instance_fields()
    assert ("Record", "debugInfo") in dead
    assert ("Record", "id") not in dead


def test_private_field_read_scoped_to_declaring_class():
    """Two private fields named 'cache': one read in its class, one not.
    Same-name reads in *other* classes must not mark a private field
    used."""
    source = """
    class A {
        private Object cache;
        void set() { cache = new Object(); }
    }
    class B {
        private Object cache;
        void set() { cache = new Object(); }
        Object get() { return cache; }
    }
    class Main {
        public static void main(String[] args) {
            new A().set();
            new B().get();
        }
    }
    """
    usage = field_usage(compile_app(source))
    assert not usage.is_instance_field_read("A", "cache")
    assert usage.is_instance_field_read("B", "cache")


def test_usage_refined_by_call_graph():
    """§5.4: a read inside an unreachable method does not count when the
    analysis is restricted to reachable methods — the raytrace 'get
    method never invoked' case."""
    source = """
    class Scene {
        private Object detail;
        Scene() { detail = new Object(); }
        public Object getDetail() { return detail; }
    }
    class Main {
        public static void main(String[] args) { Scene s = new Scene(); }
    }
    """
    program = compile_app(source)
    whole = field_usage(program)
    assert whole.is_instance_field_read("Scene", "detail")
    cg = CallGraph(program)
    assert not cg.is_reachable("Scene", "getDetail")
    refined = field_usage(program, cg.reachable_compiled_methods())
    assert not refined.is_instance_field_read("Scene", "detail")
    assert ("Scene", "detail") in refined.written_never_read_instance_fields()


def test_static_resolution_walks_superclass():
    source = """
    class Base { static int shared = 1; }
    class Derived extends Base { }
    class Main {
        public static void main(String[] args) {
            System.printInt(Derived.shared);
        }
    }
    """
    usage = field_usage(compile_app(source))
    # The read through Derived resolves to Base.shared.
    assert ("Base", "shared") not in usage.written_never_read_statics()
