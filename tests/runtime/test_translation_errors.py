"""Failure timing: an instruction that names a class or method the
program does not define, or that has no known opcode, fails when it
runs, on both engines, and never when its method is translated.

``Main.main`` reads ``k + box.v`` in a branch taken only when the
program gets an argument, and that ``GETFIELD`` sits in the middle of
a fused run. Each case puts one bad instruction in its place: the
baseline fails only if it runs, and the compiled engine must print,
count and fail exactly as the baseline does, whether the branch is
taken or not, profiled or not.
"""

import pytest

from repro.bytecode.instr import Instr
from repro.bytecode.opcodes import Op
from repro.core.profiler import HeapProfiler
from repro.mjava.compiler import compile_program
from repro.runtime.compiled import CompiledInterpreter
from repro.runtime.interpreter import Interpreter
from repro.runtime.library import link
from tests.runtime.test_dispatch import _all_handlers

SOURCE = """
class Box {
    int v;
    Box(int v) { this.v = v; }
}
class Main {
    static int n;
    public static void main(String[] args) {
        Box box = new Box(2);
        int k = args.length;
        n = 1;
        if (k > 0) {
            System.println("taken");
            n = k + box.v;
        }
        System.println("n=" + n);
    }
}
"""

BAD = {
    "getstatic": Instr(Op.GETSTATIC, ("Nope", "x")),
    "putstatic": Instr(Op.PUTSTATIC, ("Nope", "x")),
    "newinit": Instr(Op.NEWINIT, ("Nope", 0)),
    "superinit": Instr(Op.SUPERINIT, ("Nope", 0)),
    "invokestatic": Instr(Op.INVOKESTATIC, ("Main", "nope", 0)),
    "invokesuper": Instr(Op.INVOKESUPER, ("Box", "nope", 0)),
    "unknown": Instr("NOPE"),
}
ENGINES = {"baseline": Interpreter, "compiled": CompiledInterpreter}


def _program(bad=None):
    """The program, with ``bad`` in place of the branch's ``GETFIELD``,
    and that instruction's pc."""
    program = compile_program(link(SOURCE), main_class="Main")
    code = program.lookup_method("Main", "main").code
    (pc,) = [i for i, instr in enumerate(code) if instr.op == Op.GETFIELD]
    if bad is not None:
        code[pc] = bad
    return program, pc


def _outcome(engine, program, args, profiled):
    """What a run shows: its stdout and instruction count, and the type
    and args of the error it raised, if any."""
    profiler = HeapProfiler(interval_bytes=4096) if profiled else None
    vm = ENGINES[engine](program, profiler=profiler)
    try:
        vm.run(args)
        error = None
    except Exception as exc:  # the cases differ in the error they raise
        error = type(exc), exc.args
    return vm, (vm.stdout, vm.instr_count, error)


def test_the_replaced_instruction_sits_mid_run():
    program, pc = _program()
    vm, (stdout, _, error) = _outcome("compiled", program, ["x"], False)
    assert error is None and stdout == ["taken", "n=3"]
    handlers = vm._code_cache[program.lookup_method("Main", "main")]
    assert any(
        start < pc < start + len(getattr(handler, "parts", ()))
        for start, handler in enumerate(handlers)
    )


@pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("reached", [False, True], ids=["unreached", "reached"])
@pytest.mark.parametrize("bad", sorted(BAD))
def test_a_bad_instruction_fails_only_when_it_runs(bad, reached, engine, profiled):
    args = ["x"] if reached else []
    _, expected = _outcome("baseline", _program(BAD[bad])[0], args, profiled)
    program, pc = _program(BAD[bad])
    vm, outcome = _outcome(engine, program, args, profiled)
    assert outcome == expected
    stdout, _, error = outcome
    if reached:
        assert stdout == ["taken"] and error is not None
    else:
        assert stdout == ["n=1"] and error is None
    if engine == "compiled":
        # The bad instruction's handler is filed under the runtime, as
        # the walk checks of every handler, and it is in no fused run.
        handlers = vm._code_cache[program.lookup_method("Main", "main")]
        assert handlers[pc] in list(_all_handlers(vm))
        for start, handler in enumerate(handlers):
            assert not start <= pc < start + len(getattr(handler, "parts", ())), start
