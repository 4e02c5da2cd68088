"""The closure compiler and engine facade.

The headline property: when no profiler is attached, the compiled
handlers contain *zero* profiler call sites — not disabled hooks, none.
That is verifiable by introspection: no handler closes over ``on_use``
and none references profiler machinery by name. With a profiler
attached, the use handlers still make no hook call: they stamp the
trailer inline with a last-use frame bound at translation time.
"""

import pytest

from repro.errors import VMError
from repro.bytecode.opcodes import Op
from repro.core.profiler import HeapProfiler
from repro.mjava.compiler import compile_program
from repro.runtime.compiled import CompiledInterpreter
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

# The §2.1.1 use events the compiled engine stamps inline.
USE_OPS = {
    Op.GETFIELD, Op.PUTFIELD, Op.ALOAD, Op.ASTORE, Op.ARRAYLEN,
    Op.INVOKEV, Op.INVOKESUPER, Op.MONENTER, Op.MONEXIT,
}

# Telemetry machinery must likewise never leak into handlers compiled
# with telemetry off: no DispatchStats cell, no counter attributes.
TELEMETRY_NAMES = {"stats", "telemetry", "ic_hits", "ic_misses", "registry", "tracer"}


def _build(profiler=None, telemetry=None):
    program = compile_program(link(SOURCE), main_class="Main")
    vm = CompiledInterpreter(program, profiler=profiler, telemetry=telemetry)
    result = vm.run([])
    return vm, result


def _all_handlers(vm):
    for handlers in vm._code_cache.values():
        yield from handlers


class TestHookSpecialization:
    def test_unprofiled_handlers_have_zero_hook_sites(self):
        vm, result = _build()
        assert result.stdout == ["total=7"]
        assert vm._code_cache, "nothing was translated"
        for handler in _all_handlers(vm):
            code = handler.__code__
            assert "on_use" not in code.co_freevars, handler
            assert not HOOK_NAMES & set(code.co_names), handler

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

    def test_traced_invokev_handlers_bind_stats(self):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        vm, result = _build(telemetry=telemetry)
        assert result.stdout == ["total=7"]
        bound = [
            h for h in _all_handlers(vm) if "stats" in h.__code__.co_freevars
        ]
        assert bound, "no handler bound the DispatchStats counters"
        for handler in bound:
            idx = handler.__code__.co_freevars.index("stats")
            assert handler.__closure__[idx].cell_contents is telemetry.dispatch_stats

    def test_profiled_use_handlers_stamp_inline(self):
        """Profiled use handlers call no hook: ``on_use`` is in neither
        their names nor their cells. Each binds its own position,
        ``where == (method, index)``, as the last-use frame it stamps."""
        vm, result = _build(profiler=HeapProfiler(interval_bytes=1 << 20))
        assert result.stdout == ["total=7"]
        stamped = set()
        for method, handlers in vm._code_cache.items():
            for index, handler in enumerate(handlers):
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


class TestEngineFacade:
    def test_engine_selection(self):
        program = compile_program(link(SOURCE), main_class="Main")
        assert type(create_vm(program, engine="baseline")) is Interpreter
        assert type(create_vm(program, engine="compiled")) is CompiledInterpreter

    def test_default_engine(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert VMConfig().engine == DEFAULT_ENGINE == "baseline"

    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "compiled")
        program = compile_program(link(SOURCE), main_class="Main")
        assert type(create_vm(program)) is CompiledInterpreter

    def test_env_var_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        with pytest.raises(VMError, match="turbo"):
            VMConfig()

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
