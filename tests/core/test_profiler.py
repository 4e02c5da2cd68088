"""Phase-1 profiler: trailers, use events, sampling, exclusions."""

from repro.core import DragAnalysis, HeapProfiler, profile_source
from repro.runtime.interpreter import Interpreter
from tests.conftest import compile_app


def profile_body(body, helpers="", interval=8 * 1024, args=None, **kwargs):
    source = (
        "class Main { public static void main(String[] args) { "
        + body
        + " } "
        + helpers
        + " }"
    )
    return profile_source(source, "Main", args=args, interval_bytes=interval, **kwargs)


def records_of_type(result, type_name):
    return [r for r in result.records if r.type_name == type_name]


def test_every_object_gets_logged_exactly_once():
    result = profile_body(
        "for (int i = 0; i < 10; i = i + 1) { Object o = new Object(); }"
    )
    objs = records_of_type(result, "Object")
    assert len(objs) == 10
    assert len({r.handle for r in objs}) == 10


def test_never_used_has_last_use_zero():
    result = profile_body("Object o = new Object();")
    record = records_of_type(result, "Object")[0]
    assert record.never_used
    assert record.last_use_time == 0
    assert record.drag_time == record.collection_time - record.creation_time


def test_use_updates_last_use_time():
    body = """
    Object o = new Object();
    char[] pad = new char[30000];
    o.hashCode();
    char[] pad2 = new char[30000];
    """
    result = profile_body(body)
    record = records_of_type(result, "Object")[0]
    assert not record.never_used
    assert record.last_use_time > record.creation_time
    assert record.collection_time > record.last_use_time


def test_getfield_and_putfield_are_uses():
    source = """
    class Box { int v; }
    class Main {
        public static void main(String[] args) {
            Box b = new Box();
            b.v = 1;
            int x = b.v;
        }
    }
    """
    result = profile_source(source, "Main", interval_bytes=8 * 1024)
    record = [r for r in result.records if r.type_name == "Box"][0]
    assert not record.never_used


def test_array_access_is_a_use_of_the_array_not_the_element():
    body = """
    Object[] arr = new Object[4];
    arr[0] = new Object();
    char[] pad = new char[30000];
    Object o = arr[0];
    """
    result = profile_body(body)
    arr_record = records_of_type(result, "Object[]")[0]
    elem_record = records_of_type(result, "Object")[0]
    assert arr_record.last_use_time > arr_record.creation_time
    # Loading a reference out of the array does not use the element.
    assert elem_record.never_used


def test_monitor_enter_exit_is_a_use():
    body = """
    Object lock = new Object();
    synchronized (lock) { int x = 1; }
    """
    result = profile_body(body)
    record = records_of_type(result, "Object")[0]
    assert not record.never_used


def test_invoking_method_is_a_use_of_receiver_only():
    source = """
    class Sink { void take(Object arg) { } }
    class Main {
        public static void main(String[] args) {
            Sink s = new Sink();
            Object arg = new Object();
            s.take(arg);
        }
    }
    """
    result = profile_source(source, "Main", interval_bytes=8 * 1024)
    sink = [r for r in result.records if r.type_name == "Sink"][0]
    arg = [r for r in result.records if r.type_name == "Object"][0]
    assert not sink.never_used
    assert arg.never_used  # passing as argument is not a use


def test_native_handle_deref_is_a_use():
    body = """
    String s = "x" + 1;
    char[] pad = new char[30000];
    int n = s.length();
    char[] pad2 = new char[30000];
    """
    result = profile_body(body)
    strings = [r for r in records_of_type(result, "String") if not r.excluded]
    assert any(r.last_use_time > r.creation_time for r in strings)


def test_interned_literals_are_excluded():
    result = profile_body('String a = "literal-one"; a.length();')
    labels = [r.type_name for r in result.records if not r.excluded]
    # the interned literal and its char[] never appear in the log
    assert all(
        r.site_kind != "string" for r in result.records
    ), labels


def test_samples_taken_every_interval():
    result = profile_body(
        "for (int i = 0; i < 100; i = i + 1) { char[] junk = new char[1000]; }",
        interval=16 * 1024,
    )
    # ~200KB allocated / 16KB interval => ~12 samples (+ final).
    assert len(result.samples) >= 10
    times = [s.time for s in result.samples]
    assert times == sorted(times)


def test_sampling_interval_controls_precision():
    body = "for (int i = 0; i < 50; i = i + 1) { char[] junk = new char[2000]; }"
    coarse = profile_body(body, interval=64 * 1024)
    fine = profile_body(body, interval=4 * 1024)
    assert len(fine.samples) > len(coarse.samples)
    # Finer sampling means earlier collection times, so no more drag.
    fine_drag = sum(r.drag for r in fine.records)
    coarse_drag = sum(r.drag for r in coarse.records)
    assert fine_drag <= coarse_drag


def test_survivors_logged_at_program_end():
    source = """
    class Main {
        static Object keep;
        public static void main(String[] args) { keep = new Object(); }
    }
    """
    result = profile_source(source, "Main", interval_bytes=8 * 1024)
    record = [r for r in result.records if r.type_name == "Object"][0]
    assert record.survived_to_end
    assert record.collection_time == result.end_time


def test_nested_allocation_site_records_call_chain():
    source = """
    class Main {
        public static void main(String[] args) { outer(); }
        static void outer() { inner(); }
        static void inner() { Object o = new Object(); }
    }
    """
    result = profile_source(source, "Main", interval_bytes=8 * 1024, nesting_depth=4)
    record = [r for r in result.records if r.type_name == "Object"][0]
    chain = list(record.nested_alloc)
    assert chain[0].startswith("Main.inner:")
    assert chain[1].startswith("Main.outer:")
    assert chain[2].startswith("Main.main:")


def test_nesting_depth_is_configurable():
    source = """
    class Main {
        public static void main(String[] args) { a(); }
        static void a() { b(); }
        static void b() { Object o = new Object(); }
    }
    """
    shallow = profile_source(source, "Main", nesting_depth=1)
    record = [r for r in shallow.records if r.type_name == "Object"][0]
    assert len(record.nested_alloc) == 1


def test_last_use_site_recorded():
    source = """
    class Main {
        public static void main(String[] args) {
            Object o = new Object();
            touch(o);
        }
        static void touch(Object o) { o.hashCode(); }
    }
    """
    result = profile_source(source, "Main")
    record = [r for r in result.records if r.type_name == "Object"][0]
    assert record.last_use_frame.startswith("Main.touch:")


def test_trailer_not_counted_in_sizes():
    """Profiled and unprofiled runs see identical clocks and sizes."""
    source = """
    class Main {
        public static void main(String[] args) {
            for (int i = 0; i < 20; i = i + 1) { char[] junk = new char[500]; }
        }
    }
    """
    program = compile_app(source)
    bare = Interpreter(program).run([])
    profiled = profile_source(source, "Main")
    assert profiled.run_result.clock == bare.clock


def test_deep_gc_runs_finalizers_between_collections():
    source = """
    class Res {
        public void finalize() { System.println("fin"); }
    }
    class Main {
        public static void main(String[] args) {
            for (int i = 0; i < 30; i = i + 1) {
                Res r = new Res();
                char[] pad = new char[2000];
            }
        }
    }
    """
    result = profile_source(source, "Main", interval_bytes=8 * 1024)
    # finalizers ran during sampling, not just at program end
    assert result.run_result.stdout.count("fin") == 30
    res_records = [r for r in result.records if r.type_name == "Res"]
    assert len(res_records) == 30
    assert all(not r.survived_to_end for r in res_records)


def test_vm_thrown_exceptions_are_attributed_to_vm_site():
    body = """
    try { Object o = null; o.hashCode(); }
    catch (NullPointerException e) { }
    """
    result = profile_body(body)
    npes = [r for r in result.records if r.type_name == "NullPointerException"]
    assert len(npes) == 1
    assert npes[0].site_label.startswith("<vm>")


# -- the allocation-context table -------------------------------------------

CONTEXTS = """
class Box { int v; }
class Main {
    static Box make() { return new Box(); }
    public static void main(String[] args) {
        Box a = make();
        Box b = make();
        for (int i = 0; i < 3; i = i + 1) { Box c = make(); }
        String s = "n=" + args.length;
        System.println(s);
    }
}
"""


def _contexts_of(profiler, type_name):
    return [c for c in profiler._contexts.values() if c.type_name == type_name]


def test_one_site_allocating_two_types_gets_two_contexts():
    """A string conversion allocates a char[] and then a String at the
    same site: two contexts, each with its own type."""
    result = profile_source(CONTEXTS, "Main")
    profiler = result.profiler
    by_site = {}
    for context in profiler._contexts.values():
        by_site.setdefault((context.site, context.nested), set()).add(
            context.type_name
        )
    assert {"char[]", "String"} in by_site.values()
    for record in result.records:
        assert record.type_name in by_site[record.alloc_site, record.nested_alloc]


def test_one_site_reached_through_two_chains_gets_two_contexts():
    result = profile_source(CONTEXTS, "Main")
    boxes = _contexts_of(result.profiler, "Box")
    # make() is called from three places in main.
    assert len(boxes) == 3
    assert len({c.site for c in boxes}) == 1
    assert len({c.nested for c in boxes}) == 3
    assert all(c.nested[0] == boxes[0].nested[0] for c in boxes)
    assert {r.nested_alloc for r in records_of_type(result, "Box")} == {
        c.nested for c in boxes
    }


def test_context_table_holds_one_entry_per_distinct_key():
    """One entry per distinct (site, type, raw call chain), counted
    here independently through the profiler's chain capture."""
    program = compile_app(CONTEXTS)
    profiler = HeapProfiler(interval_bytes=512)
    keys = set()
    on_alloc = profiler.on_alloc

    def counting_on_alloc(obj):
        keys.add((profiler.interp.alloc_site, obj.type_name(),
                  profiler._nested_frames(profiler.nesting_depth)))
        on_alloc(obj)

    profiler.on_alloc = counting_on_alloc
    result = Interpreter(program, profiler=profiler).run([])
    assert len(profiler._contexts) == len(keys)
    assert len(keys) < result.heap_stats.objects_allocated
