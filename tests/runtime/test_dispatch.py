"""The closure compiler and engine facade.

The headline property: when no profiler is attached, the compiled
handlers contain *zero* profiler call sites — not disabled hooks, none.
That is verifiable by introspection: no handler closes over ``on_use``
and none references profiler machinery by name. With a profiler
attached, the use handlers still make no hook call: they stamp the
trailer inline with a last-use frame bound at translation time. Every
inspection also walks the ``parts`` of each fused run, so fusing a
handler into a run cannot hide it. Each run is compiled into one
function at its first dispatch, so the hook and telemetry inspections
also inspect the function of every run the program dispatched, with
the namespace that function reads its names from. Every walk also
checks that each code object it meets says it comes from the runtime
package, where the per-package call gates of
``tests/test_work_gates.py`` count its calls.
"""

import os

import pytest

import repro.runtime

from repro.errors import VMError
from repro.bytecode.opcodes import Op
from repro.core.profiler import HeapProfiler
from repro.mjava.compiler import compile_program
from repro.runtime.compiled import CompiledInterpreter
from repro.runtime.dispatch import BRANCHES, FUSABLE
from repro.runtime.engine import (
    DEFAULT_ENGINE,
    ENGINES,
    Engine,
    VMConfig,
    create_vm,
    run_program,
)
from repro.runtime.interpreter import Interpreter
from repro.runtime.library import link
from repro.stream.codec import V2LogWriter
from repro.stream.sinks import LogWriterSink

# Exercises every hooked use-op: getfield/putfield, array load/store,
# arraylength, invokevirtual, invokesuper, monitorenter/exit — plus
# allocation, branching, statics, exceptions, and string building.
SOURCE = """
class Box {
    int value;
    Box(int v) { value = v; }
    int get() { return value; }
}
class BigBox extends Box {
    BigBox(int v) { super(v); }
    int get() { return super.get(); }
}
class Main {
    static int total;
    public static void main(String[] args) {
        int[] nums = new int[4];
        for (int i = 0; i < nums.length; i = i + 1) { nums[i] = i * 3; }
        Box box = new BigBox(nums[2]);
        synchronized (box) { total = box.get(); }
        try { throw new RuntimeException("boom"); }
        catch (RuntimeException e) { total = total + 1; }
        System.println("total=" + total);
    }
}
"""

HOOK_NAMES = {"profiler", "note_use", "on_alloc", "on_use"}

RUNTIME = os.path.dirname(repro.runtime.__file__) + os.sep

# The §2.1.1 use events the compiled engine stamps inline.
USE_OPS = {
    Op.GETFIELD, Op.PUTFIELD, Op.ALOAD, Op.ASTORE, Op.ARRAYLEN,
    Op.INVOKEV, Op.INVOKESUPER, Op.MONENTER, Op.MONEXIT,
}

# Telemetry machinery must likewise never leak into handlers compiled
# with telemetry off: no DispatchStats cell, no counter attributes.
TELEMETRY_NAMES = {"stats", "telemetry", "ic_hits", "ic_misses", "registry", "tracer"}


# The names a use stamp reads that only a profiled run may hold.
PROFILED_NAMES = {"chain", "nested_frames"}


def _build(profiler=None, telemetry=None):
    program = compile_program(link(SOURCE), main_class="Main")
    vm = CompiledInterpreter(program, profiler=profiler, telemetry=telemetry)
    result = vm.run([])
    return vm, result


def _counted(handler):
    """``handler``, once its code is filed under the runtime package."""
    assert handler.__code__.co_filename.startswith(RUNTIME), (
        handler, handler.__code__.co_filename)
    return handler


def _instruction_handlers(handlers):
    """Each instruction's own handler, by index: the first part of a
    fused run stands for its start, whose list entry is the run."""
    for index, handler in enumerate(handlers):
        parts = getattr(handler, "parts", None)
        if parts is None:
            yield index, _counted(handler)
            continue
        _counted(handler)
        assert len(parts) >= 2, handler
        for offset, part in enumerate(parts[1:], start=1):
            assert part is handlers[index + offset], (handler, offset)
        yield index, _counted(parts[0])


def _all_handlers(vm):
    """Every closure a dispatch may call: fused runs and, inside them,
    each part."""
    for handlers in vm._code_cache.values():
        for handler in handlers:
            yield _counted(handler)
            for part in getattr(handler, "parts", ()):
                yield _counted(part)


def _compiled_runs(vm):
    """``(method, start, function)`` of every run compiled into one
    function, which sits at the run's start in place of its stub."""
    runs = [
        (method, start, handler)
        for method, handlers in vm._code_cache.items()
        for start, handler in enumerate(handlers)
        if hasattr(handler, "source")
    ]
    assert runs, "no run was compiled"
    return runs


class TestHookSpecialization:
    def test_unprofiled_handlers_have_zero_hook_sites(self):
        vm, result = _build()
        assert result.stdout == ["total=7"]
        assert vm._code_cache, "nothing was translated"
        for handler in _all_handlers(vm):
            code = handler.__code__
            assert "on_use" not in code.co_freevars, handler
            assert not HOOK_NAMES & set(code.co_names), handler
        for method, start, run in _compiled_runs(vm):
            namespace = set(run.__globals__)
            assert not HOOK_NAMES & namespace, (method, start)
            assert not PROFILED_NAMES & namespace, (method, start)
            assert not PROFILED_NAMES & set(run.__code__.co_names), (method, start)
            assert not any(name.startswith("where") for name in namespace)
            assert "trailer" not in run.__code__.co_varnames, (method, start)

    def test_untraced_handlers_have_zero_telemetry_sites(self):
        """Telemetry off (the default) must leave handlers exactly as
        hook-free as profiler-off does: no stats cell, no counter names."""
        vm, result = _build()
        assert result.stdout == ["total=7"]
        for handler in _all_handlers(vm):
            code = handler.__code__
            assert "stats" not in code.co_freevars, handler
            assert not TELEMETRY_NAMES & set(code.co_names), handler
            assert not TELEMETRY_NAMES & set(code.co_freevars), handler
        for method, start, run in _compiled_runs(vm):
            assert not TELEMETRY_NAMES & set(run.__globals__), (method, start)

    def test_telemetry_never_reaches_a_handler_closure(self):
        """Telemetry counts translation, not dispatch: with it attached,
        profiled or not, no handler binds the stats or names a counter."""
        from repro.obs import Telemetry

        for profiler in (None, HeapProfiler(interval_bytes=1 << 20)):
            telemetry = Telemetry()
            vm, result = _build(profiler=profiler, telemetry=telemetry)
            assert result.stdout == ["total=7"]
            snap = telemetry.registry.snapshot()
            assert snap["repro_dispatch_handlers_total"] > 0
            for handler in _all_handlers(vm):
                code = handler.__code__
                assert not TELEMETRY_NAMES & set(code.co_freevars), handler
                assert not TELEMETRY_NAMES & set(code.co_names), handler
            stats = telemetry.dispatch_stats
            for method, start, run in _compiled_runs(vm):
                namespace = run.__globals__
                assert not TELEMETRY_NAMES & set(namespace), (method, start)
                assert all(value is not stats for value in namespace.values())
            assert snap["repro_dispatch_runs_compiled_total"] == len(_compiled_runs(vm))

    def test_profiled_use_handlers_stamp_inline(self):
        """Profiled use handlers call no hook: ``on_use`` is in neither
        their names nor their cells. Each binds its own position,
        ``where == (method, index)``, as the last-use frame it stamps."""
        vm, result = _build(profiler=HeapProfiler(interval_bytes=1 << 20))
        assert result.stdout == ["total=7"]
        stamped = set()
        for method, handlers in vm._code_cache.items():
            for index, handler in _instruction_handlers(handlers):
                code = handler.__code__
                assert "on_use" not in code.co_names, handler
                assert "on_use" not in code.co_freevars, handler
                if method.code[index].op not in USE_OPS:
                    continue
                assert "where" in code.co_freevars, handler
                cell = handler.__closure__[code.co_freevars.index("where")]
                where = cell.cell_contents
                assert where == (method, index), handler
                assert where[0] is method
                stamped.add(method.code[index].op)
        assert stamped == USE_OPS, stamped

    def test_profiled_compiled_runs_stamp_inline(self):
        """A compiled run stamps inline too: ``on_use`` is in neither its
        names nor its namespace, and each use part ``k`` reads its own
        last-use frame ``where_k == (method, start + k)``."""
        vm, result = _build(profiler=HeapProfiler(interval_bytes=1 << 20))
        assert result.stdout == ["total=7"]
        stamped = set()
        for method, start, run in _compiled_runs(vm):
            namespace = run.__globals__
            assert "on_use" not in run.__code__.co_names, (method, start)
            assert not HOOK_NAMES & set(namespace), (method, start)
            assert PROFILED_NAMES <= set(namespace), (method, start)
            wheres = {name for name in namespace if name.startswith("where_")}
            for k, instr in enumerate(method.code[start:start + len(run.parts)]):
                where = namespace.get(f"where_{k}")
                if instr.op not in USE_OPS:
                    assert where is None, (method, start, k)
                    continue
                assert where == (method, start + k), (method, start, k)
                assert where[0] is method
                wheres.discard(f"where_{k}")
                stamped.add(instr.op)
            assert not wheres, wheres
        assert stamped == USE_OPS & FUSABLE, stamped


class TestDispatchLoop:
    def test_compiled_run_to_has_one_loop_and_no_sample_poll(self):
        """Profiled or not, the compiled engine runs one dispatch loop,
        and its only per-boundary test is the heap's safepoint flag:
        the sample threshold is the allocation's business."""
        import ast
        import inspect
        import textwrap

        run_to = CompiledInterpreter._run_to
        tree = ast.parse(textwrap.dedent(inspect.getsource(run_to)))
        loops = [n for n in ast.walk(tree) if isinstance(n, (ast.While, ast.For))]
        assert len(loops) == 1
        names = set(run_to.__code__.co_names)
        assert "next_sample_at" not in names
        assert "gc_pending" in names and "_safepoint" in names


class TestTranslation:
    def test_translation_is_lazy_and_cached(self):
        program = compile_program(link(SOURCE), main_class="Main")
        vm = CompiledInterpreter(program)
        assert not vm._code_cache
        vm.run([])
        main = program.lookup_method("Main", "main")
        assert main in vm._code_cache
        assert vm.handlers_for(main) is vm._code_cache[main]
        assert len(vm._code_cache[main]) == len(main.code)

    def test_straight_line_runs_fuse_into_one_handler(self):
        """A run's handler sits at its start and exposes its parts, the
        instructions' own handlers in order; the run holds only fusable
        opcodes, maybe closed by one branch, and no jump target or catch
        handler lies past its start."""
        vm, result = _build()
        assert result.stdout == ["total=7"]
        fused = 0
        for method, handlers in vm._code_cache.items():
            assert len(list(_instruction_handlers(handlers))) == len(handlers)
            code = method.code
            targets = {i.args[0] for i in code if i.op in BRANCHES}
            targets |= {e.handler for e in method.exception_table}
            for start, handler in enumerate(handlers):
                parts = getattr(handler, "parts", None)
                if parts is None:
                    continue
                fused += 1
                ops = [instr.op for instr in code[start:start + len(parts)]]
                assert set(ops[:-1]) <= FUSABLE, ops
                assert ops[-1] in FUSABLE | BRANCHES, ops
                assert not targets & set(range(start + 1, start + len(parts)))
        assert fused > 0


SPIN_SOURCE = """
class Cell { int v; }
class Main {
    static int spin(Cell c, int n) {
        int total = 0;
        for (int i = 0; i < n; i = i + 1) { total = total + c.v * i; }
        return total;
    }
    public static void main(String[] args) {
        Cell c = new Cell();
        c.v = 3;
        System.println("total " + spin(c, Integer.parseInt(args[0])));
    }
}
"""


class TestFirstDispatch:
    def _run(self, engine, iterations, log_path):
        program = compile_program(link(SPIN_SOURCE), main_class="Main")
        sink = LogWriterSink(V2LogWriter(log_path))
        profiler = HeapProfiler(interval_bytes=64, sink=sink)
        vm = create_vm(program, engine=engine, profiler=profiler)
        result = vm.run([str(iterations)])
        sink.close()
        return vm, result

    @pytest.mark.parametrize("iterations", [0, 1, 2])
    def test_a_run_is_compiled_exactly_at_its_first_dispatch(self, tmp_path, iterations):
        """``spin``'s loop test runs ``iterations + 1`` times and its body
        ``iterations`` times: each is compiled iff it was dispatched,
        and the program's stdout, instruction count and log bytes are
        the baseline's either way."""
        base_vm, base = self._run("baseline", iterations, tmp_path / "base.dlog2")
        vm, comp = self._run("compiled", iterations, tmp_path / "comp.dlog2")
        assert comp.stdout == base.stdout == [f"total {3 * sum(range(iterations))}"]
        assert comp.instructions == base.instructions
        assert (tmp_path / "comp.dlog2").read_bytes() == (tmp_path / "base.dlog2").read_bytes()
        spin = vm.program.lookup_method("Main", "spin")
        dispatched = {Op.JIF: iterations + 1, Op.JUMP: iterations}
        seen = set()
        for start, handler in enumerate(vm._code_cache[spin]):
            parts = getattr(handler, "parts", None)
            if parts is None:
                continue
            last = spin.code[start + len(parts) - 1].op
            if last not in dispatched:
                continue
            seen.add(last)
            assert hasattr(handler, "source") == (dispatched[last] > 0), (last, iterations)
        assert seen == set(dispatched)


class TestEngineFacade:
    def test_engine_selection(self):
        program = compile_program(link(SOURCE), main_class="Main")
        assert type(create_vm(program, engine="baseline")) is Interpreter
        assert type(create_vm(program, engine="compiled")) is CompiledInterpreter

    def test_default_engine(self):
        assert VMConfig().engine == DEFAULT_ENGINE == "compiled"

    def test_config_rejects_unknown_engine(self):
        with pytest.raises(VMError, match="warp"):
            VMConfig(engine="warp")

    def test_config_replace(self):
        config = VMConfig(engine="baseline", max_heap=1024)
        replaced = config.replace(engine="compiled")
        assert replaced.engine == "compiled"
        assert replaced.max_heap == 1024
        assert config.engine == "baseline"  # original untouched

    def test_engine_run(self):
        program = compile_program(link(SOURCE), main_class="Main")
        engine = Engine(program, engine="compiled")
        result = engine.run([])
        assert result.stdout == ["total=7"]
        assert engine.vm is not None
        assert engine.vm.heap.stats.objects_allocated > 0

    def test_run_program_one_call(self):
        program = compile_program(link(SOURCE), main_class="Main")
        result = run_program(program, engine="compiled")
        assert result.stdout == ["total=7"]

    def test_registry(self):
        assert ENGINES["baseline"] is Interpreter
        assert ENGINES["compiled"] is CompiledInterpreter


class TestFinalizerErrors:
    FINALIZER_SOURCE = """
    class Leaky {
        void finalize() { throw new RuntimeException("finalizer boom"); }
    }
    class Main {
        public static void main(String[] args) {
            for (int i = 0; i < 50; i = i + 1) {
                Leaky l = new Leaky();
                char[] pressure = new char[512];
                pressure[0] = 'x';
            }
            System.println("done");
        }
    }
    """

    # Finalizers run during *deep GC* (collect -> finalize -> collect),
    # which only the profiler triggers — so the nonzero cases are all
    # profiled runs.

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_profiled_run_counts_swallowed_finalizer_exceptions(self, engine):
        from repro.core.profiler import profile_source

        result = profile_source(
            self.FINALIZER_SOURCE, "Main", interval_bytes=4096, engine=engine
        )
        assert result.run_result.stdout == ["done"]
        assert result.finalizer_errors == 50
        assert result.run_result.finalizer_errors == 50
        assert result.profiler.finalizer_errors == 50

    def test_clean_run_has_zero(self):
        program = compile_program(link(SOURCE), main_class="Main")
        assert run_program(program).finalizer_errors == 0
