"""Garbage collector behaviour: reachability, roots, finalization."""

from tests.conftest import run_main_body, run_source


def live_type_counts(interp):
    counts = {}
    for obj in interp.heap.iter_objects():
        counts[obj.type_name()] = counts.get(obj.type_name(), 0) + 1
    return counts


def test_unreachable_objects_are_collected():
    source = """
    class Node { Node next; }
    class Main {
        public static void main(String[] args) {
            Node head = new Node();
            head.next = new Node();
            head = null;
            System.gc();
            System.println("ok");
        }
    }
    """
    result, interp = run_source(source)
    interp.full_gc()
    assert live_type_counts(interp).get("Node", 0) == 0


def test_reachable_chain_survives():
    source = """
    class Node { Node next; }
    class Main {
        static Node root;
        public static void main(String[] args) {
            root = new Node();
            root.next = new Node();
            root.next.next = new Node();
            System.gc();
        }
    }
    """
    _, interp = run_source(source)
    interp.full_gc()
    assert live_type_counts(interp)["Node"] == 3


def test_static_fields_are_roots():
    source = """
    class Main {
        static Object keep = new Object();
        public static void main(String[] args) { System.gc(); }
    }
    """
    _, interp = run_source(source)
    interp.full_gc()
    assert live_type_counts(interp).get("Object", 0) == 1


def test_cycle_is_collected():
    source = """
    class Node { Node next; }
    class Main {
        public static void main(String[] args) {
            Node a = new Node();
            Node b = new Node();
            a.next = b;
            b.next = a;
            a = null;
            b = null;
            System.gc();
        }
    }
    """
    # The cycle is unreachable once both locals die; under refcounting it
    # would leak — our tracing GC must reclaim it (this is exactly the
    # drag-semantics point the repro band warns about).
    _, interp = run_source(source)
    interp.full_gc()
    assert live_type_counts(interp).get("Node", 0) == 0


def test_locals_are_roots_during_execution():
    source = """
    class Main {
        public static void main(String[] args) {
            Object held = new Object();
            System.gc();
            int count = countObjects();
            held.hashCode();
        }
        static int countObjects() { return 0; }
    }
    """
    # If locals were not roots, held.hashCode() would crash on a swept
    # object; completing without error is the assertion.
    result, _ = run_source(source)
    assert result is not None


def test_array_elements_are_traced():
    source = """
    class Main {
        static Object[] keep = new Object[2];
        public static void main(String[] args) {
            keep[0] = new Object();
            System.gc();
            keep[0].hashCode();
        }
    }
    """
    _, interp = run_source(source)
    interp.full_gc()
    assert live_type_counts(interp).get("Object", 0) == 1


def test_finalizer_runs_before_reclamation():
    source = """
    class Noisy {
        public void finalize() { System.println("finalized"); }
    }
    class Main {
        public static void main(String[] args) {
            Noisy n = new Noisy();
            n = null;
            deepClean();
        }
        static void deepClean() { System.gc(); }
    }
    """
    result, interp = run_source(source)
    interp.deep_gc()
    assert "finalized" in interp.stdout
    assert live_type_counts(interp).get("Noisy", 0) == 0


def test_finalizer_runs_exactly_once():
    source = """
    class Noisy {
        public void finalize() { System.println("f"); }
    }
    class Main {
        public static void main(String[] args) {
            Noisy n = new Noisy();
            n = null;
        }
    }
    """
    _, interp = run_source(source)
    interp.deep_gc()
    interp.deep_gc()
    assert interp.stdout.count("f") == 1


def test_finalizer_resurrection_keeps_object_alive_once():
    source = """
    class Phoenix {
        static Phoenix saved;
        public void finalize() { saved = this; }
    }
    class Main {
        public static void main(String[] args) {
            Phoenix p = new Phoenix();
            p = null;
        }
    }
    """
    _, interp = run_source(source)
    interp.deep_gc()
    assert live_type_counts(interp).get("Phoenix", 0) == 1
    # Drop the static reference; already-finalized objects die for good.
    interp.statics["Phoenix"]["saved"] = None
    interp.deep_gc()
    assert live_type_counts(interp).get("Phoenix", 0) == 0


def test_finalizer_exception_is_swallowed():
    source = """
    class Bad {
        public void finalize() { throw new RuntimeException("from finalizer"); }
    }
    class Main {
        public static void main(String[] args) {
            Bad b = new Bad();
            b = null;
        }
    }
    """
    _, interp = run_source(source)
    interp.deep_gc()  # must not raise
    assert interp._finalizer_errors == 1


def test_objects_kept_alive_by_finalize_queue_members():
    source = """
    class Holder {
        Object payload;
        Holder(Object payload) { this.payload = payload; }
        public void finalize() { payload.hashCode(); }
    }
    class Main {
        public static void main(String[] args) {
            Holder h = new Holder(new Object());
            h = null;
        }
    }
    """
    _, interp = run_source(source)
    # First collection queues Holder; its payload must survive so the
    # finalizer can use it.
    interp.full_gc()
    assert live_type_counts(interp).get("Holder", 0) == 1
    assert live_type_counts(interp).get("Object", 0) >= 1
    interp.deep_gc()
    assert live_type_counts(interp).get("Holder", 0) == 0


def test_gc_stats_accumulate():
    _, interp = run_main_body(
        "for (int i = 0; i < 100; i = i + 1) { Object o = new Object(); } System.gc();"
    )
    assert interp.heap.stats.gc_runs >= 1
    assert interp.heap.stats.objects_marked > 0
    assert interp.heap.stats.bytes_reclaimed > 0


def test_gc_pause_time_accumulates():
    """Every collection adds its stop-the-world wall time to
    gc_pause_seconds, telemetry attached or not."""
    _, interp = run_main_body(
        "for (int i = 0; i < 100; i = i + 1) { Object o = new Object(); } System.gc();"
    )
    stats = interp.heap.stats
    assert stats.gc_runs >= 1
    assert stats.gc_pause_seconds > 0.0
    assert stats.deep_gc_runs == 0  # no profiler, no deep GC
    before = stats.gc_pause_seconds
    interp.full_gc()
    assert stats.gc_pause_seconds > before


def test_deep_gc_runs_counted():
    _, interp = run_main_body("Object o = new Object();")
    assert interp.heap.stats.deep_gc_runs == 0
    interp.deep_gc()
    interp.deep_gc()
    assert interp.heap.stats.deep_gc_runs == 2


def test_finalizable_class_cache_matches_method_lookup():
    """has_finalizer caches one answer per class name; it must be the
    answer lookup_method gives, inherited finalize() included."""
    source = """
    class Base {
        public void finalize() { System.println("base finalized"); }
    }
    class Derived extends Base { int extra; }
    class Plain { int v; }
    class Main {
        static Object[] keep = new Object[3];
        public static void main(String[] args) {
            keep[0] = new Base();
            keep[1] = new Derived();
            keep[2] = new Plain();
            Derived gone = new Derived();
        }
    }
    """
    from repro.runtime.objects import Instance

    _, interp = run_source(source)
    collector = interp.collector
    seen = set()
    for obj in list(interp.heap.iter_objects()):
        want = False
        if isinstance(obj, Instance):
            seen.add(obj.class_name)
            method = interp.program.lookup_method(obj.class_name, "finalize")
            want = method is not None and not method.is_native
        # The first answer fills the cache, the second reads it.
        assert collector.has_finalizer(obj) == want, obj
        assert collector.has_finalizer(obj) == want, obj
    assert {"Base", "Derived", "Plain"} <= seen
    assert collector._finalizable["Derived"] is True
    assert collector._finalizable["Plain"] is False
    interp.deep_gc()
    assert interp.stdout.count("base finalized") == 1
