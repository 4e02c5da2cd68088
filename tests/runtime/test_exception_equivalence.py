"""Differential exceptions: both engines on a program that throws from
the middle of fused straight-line runs.

``tests/fixtures/exceptions.mj`` throws NullPointerException (getfield
on null), ArithmeticException (``/`` and ``%`` by zero),
IndexOutOfBoundsException (array load and store) and
ClassCastException (checkcast), each caught in the throwing method and
in its caller, and an OutOfMemoryError raised while the VM allocates a
throwable under a tight ``max_heap``. A fused run that stops at a
throwing part must leave the instruction count, the exception ``pc``
and every use stamp exactly where one dispatch per instruction would:
the checks are :mod:`tests.runtime.test_engine_equivalence`'s.
"""

from pathlib import Path

import pytest

from repro.bytecode.opcodes import Op
from repro.core.profiler import HeapProfiler
from repro.mjava.compiler import compile_program
from repro.runtime.compiled import CompiledInterpreter
from repro.runtime.engine import create_vm
from repro.runtime.interpreter import Interpreter
from repro.runtime.library import link
from repro.stream.codec import V2LogWriter
from repro.stream.sinks import LogWriterSink
from tests.runtime.test_engine_equivalence import (
    _assert_profiles_equal,
    _assert_results_equal,
    _run,
)

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "exceptions.mj"
ARGS = ["12", "4728"]
# Leaves room for an OutOfMemoryError and its message, but not for the
# NullPointerException whose message names the long field.
MAX_HEAP = 12288
INTERVAL = 2048
THROWING_OPS = {Op.GETFIELD, Op.DIV, Op.MOD, Op.ALOAD, Op.ASTORE, Op.CHECKCAST}


def fresh_program():
    return compile_program(link(FIXTURE.read_text(encoding="utf-8")), main_class="Main")


def test_fixture_throws_every_kind_and_runs_out_of_heap():
    result, _ = _run(Interpreter, fresh_program(), ARGS, MAX_HEAP)
    lines = set(result.stdout)
    assert {"getfield value", "/ by zero", "% by zero", "Other to Cell"} <= lines
    assert any(line.endswith(" of 8") for line in lines)
    assert result.stdout[-4:] == [
        "caught 747332 total 3478",
        "exhausted here 9455",
        "heap exhausted",
        "done 9455",
    ]


def test_every_throwing_opcode_sits_inside_a_fused_run():
    """Each throwing opcode of the fixture runs as a part of a fused
    run, past its first instruction, so the loop's count correction and
    the per-part ``pc`` are what the equivalence below exercises."""
    vm = CompiledInterpreter(fresh_program(), max_heap=MAX_HEAP)
    vm.run(list(ARGS))
    inside = set()
    for method, handlers in vm._code_cache.items():
        for start, handler in enumerate(handlers):
            for offset in range(1, len(getattr(handler, "parts", ()))):
                op = method.code[start + offset].op
                if op in THROWING_OPS:
                    inside.add(op)
    assert inside == THROWING_OPS


def test_unprofiled_equivalence():
    base, _ = _run(Interpreter, fresh_program(), ARGS, MAX_HEAP)
    comp, _ = _run(CompiledInterpreter, fresh_program(), ARGS, MAX_HEAP)
    _assert_results_equal(base, comp)


def test_profiled_equivalence():
    base, base_prof = _run(
        Interpreter, fresh_program(), ARGS, MAX_HEAP, profiled=True, interval=INTERVAL
    )
    comp, comp_prof = _run(
        CompiledInterpreter, fresh_program(), ARGS, MAX_HEAP, profiled=True,
        interval=INTERVAL,
    )
    _assert_results_equal(base, comp)
    _assert_profiles_equal(base_prof, comp_prof)


@pytest.mark.parametrize("last_use_depth", [1, 3])
def test_log_bytes_identical(tmp_path, last_use_depth):
    logs = {}
    for engine in ("baseline", "compiled"):
        path = tmp_path / f"{engine}.dlog2"
        sink = LogWriterSink(V2LogWriter(path))
        profiler = HeapProfiler(
            interval_bytes=INTERVAL, last_use_depth=last_use_depth, sink=sink
        )
        vm = create_vm(
            fresh_program(), engine=engine, max_heap=MAX_HEAP, profiler=profiler
        )
        vm.run(list(ARGS))
        sink.close()
        logs[engine] = path.read_bytes()
    assert logs["baseline"] == logs["compiled"]
