"""Call graph: reachability, virtual targets, unreachable methods."""

from repro.analysis.callgraph import CallGraph
from tests.conftest import compile_app


def test_main_and_callees_reachable():
    source = """
    class Main {
        public static void main(String[] args) { helper(); }
        static void helper() { }
        static void orphan() { }
    }
    """
    cg = CallGraph(compile_app(source))
    assert cg.is_reachable("Main", "main")
    assert cg.is_reachable("Main", "helper")
    assert not cg.is_reachable("Main", "orphan")
    assert ("Main", "orphan") in cg.unreachable_methods()


def test_virtual_call_reaches_all_overriders():
    source = """
    class Shape { int area() { return 0; } }
    class Circle extends Shape { int area() { return 3; } }
    class Square extends Shape { int area() { return 4; } }
    class Main {
        public static void main(String[] args) {
            Shape s = new Circle();
            System.printInt(s.area());
        }
    }
    """
    cg = CallGraph(compile_app(source))
    assert cg.is_reachable("Shape", "area")
    assert cg.is_reachable("Circle", "area")
    # CHA over-approximates: Square.area is considered a target too.
    assert cg.is_reachable("Square", "area")


def test_transitive_unreachability():
    source = """
    class Main {
        public static void main(String[] args) { }
        static void deadA() { deadB(); }
        static void deadB() { }
    }
    """
    cg = CallGraph(compile_app(source))
    unreachable = cg.unreachable_methods()
    assert ("Main", "deadA") in unreachable
    assert ("Main", "deadB") in unreachable


def test_constructor_edges():
    source = """
    class Widget { Widget() { setup(); } void setup() { } }
    class Main {
        public static void main(String[] args) { Widget w = new Widget(); }
    }
    """
    cg = CallGraph(compile_app(source))
    assert cg.is_reachable("Widget", "<init>")
    assert cg.is_reachable("Widget", "setup")


def test_clinit_is_root():
    source = """
    class Eager { static Object o = make(); static Object make() { return new Object(); } }
    class Main { public static void main(String[] args) { } }
    """
    cg = CallGraph(compile_app(source))
    assert cg.is_reachable("Eager", "<clinit>")
    assert cg.is_reachable("Eager", "make")


def test_finalizer_reachable_when_class_instantiated():
    source = """
    class Res { public void finalize() { this.cleanup(); } void cleanup() { } }
    class Main { public static void main(String[] args) { Res r = new Res(); } }
    """
    cg = CallGraph(compile_app(source))
    assert cg.is_reachable("Res", "finalize")
    assert cg.is_reachable("Res", "cleanup")


def test_callers_of():
    source = """
    class Main {
        public static void main(String[] args) { a(); b(); }
        static void a() { shared(); }
        static void b() { shared(); }
        static void shared() { }
    }
    """
    cg = CallGraph(compile_app(source))
    callers = {c for c in cg.callers_of("Main", "shared")}
    assert ("Main", "a") in callers and ("Main", "b") in callers


def test_unreachable_excludes_library_by_default():
    source = "class Main { public static void main(String[] args) { } }"
    cg = CallGraph(compile_app(source))
    assert all(cls == "Main" for cls, _ in cg.unreachable_methods())
