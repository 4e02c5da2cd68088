"""The per-method closure compiler behind the ``compiled`` engine.

At first execution of a method, :func:`compile_method` translates its
bytecode into a list of *handler closures*, one per instruction. Each
closure has its operands, resolved callees, and VM plumbing (heap,
frame stack, statics) bound as cell variables, so the dispatch loop in
:mod:`repro.runtime.compiled` does no opcode comparison and no operand
decoding — it indexes ``handlers[frame.pc]`` and calls.

**Fused runs.** Most instructions cannot allocate, call, return or
switch frames (:data:`FUSABLE`: locals, constants, stack shuffles,
fields, statics, array access, arithmetic, comparisons, casts). A
straight-line run of two or more of them, optionally closed by one
``JUMP``/``JIF``/``JIT``, is dispatched once, as one function compiled
from the run's instructions (:func:`compile_run`) that stores
``frame.pc`` one past each part's index before it runs, exactly as the
loop would. The run is compiled at its first dispatch: until then the
handler at its start is a stub that has the VM compile the run and put
the function in its place. A run never continues into a jump target or
catch handler, so every pc reached other than by falling through
starts its own run; the other pcs of a run keep their single handler.
The stub and the function expose the run's handlers as ``parts``. The
run returns how many instructions it ran past its first, for the
loop's count; an exception thrown mid-run leaves ``frame.pc`` one past
the part that threw, from which the loop corrects the count.

**Source templates.** Each fusable opcode and branch has its semantics
written once, as a source template (:data:`TEMPLATES`), in an
unprofiled and an inline-stamp profiled variant. On first use in a
process a template is compiled into a factory, which makes the
opcode's lone handler closures; those are also a run's parts. A
compiled run is the run's template bodies concatenated: it binds the
stack and locals once and reads each part's operands from that part's
closure. Operands, last-use frames and VM plumbing reach generated
code only as names in its namespace; its source holds template text,
generated names (``field_3`` is part 3's field) and translator-made
integers (local slots, jump targets, pcs), never program text. The
other opcodes keep their closure factories.

Both engines report the same runtime events to an attached
:class:`~repro.core.profiler.HeapProfiler`: an allocation (the heap
calls ``on_alloc``), a §2.1.1 *object use* (getfield, putfield,
invoking a method on the object, monitor enter/exit, array element
access/length, native handle dereference), and the instruction
boundary where the dispatch loop may take a deep-GC sample. Events
observe the byte clock; they never advance it.

Three properties the rest of the system depends on:

* **Bit-identical semantics.** Every handler replays the baseline
  interpreter's arm for its opcode exactly — same event order, same
  exception messages, same allocation-site updates, same pc discipline
  (``pc`` is one past the instruction *before* its handler runs, fused
  or not, so profiler frames, exception pcs and jump targets match the
  baseline). Fused parts need no safepoint between them: only an
  allocation raises the safepoint flag, and the only allocation a part
  can make is the throwable that ends its run. The differential suite in
  ``tests/runtime/test_engine_equivalence.py`` enforces this.
* **Hook specialization.** Use-event opcodes come in two variants. When
  no profiler is attached (``ctx.profiler is None``) the emitted
  closure or compiled run contains *no profiler code at all* — not a
  disabled hook, none. ``tests/runtime/test_dispatch.py`` asserts this
  by inspecting the handlers' code objects and namespaces.
* **Inline use stamping.** When a profiler is attached, the use-op
  handlers stamp the object's trailer themselves instead of calling
  :meth:`HeapProfiler.on_use`, which stays the reference semantics
  (the baseline interpreter and natives call it). A handler only runs
  while its frame is the top frame, one instruction past its own
  index, so the last-use frame ``(method, index)`` that ``on_use``
  would build from ``frames[-1]`` is a translation-time constant. The
  last-use chain depth is one too: at ``last_use_depth > 1`` the
  handler also captures the chain through the profiler's
  ``_nested_frames``, exactly as ``on_use`` does.

Compilation is per (method, VM) because closures bind VM-instance state
(the heap, the frame list, the profiler); the cache lives on the
:class:`~repro.runtime.compiled.CompiledInterpreter`. Only the template
factories, which bind nothing, are kept per process.
"""

from __future__ import annotations

import os
import re
from typing import Callable, Dict, List, Tuple

from repro.errors import VMError
from repro.bytecode.opcodes import Op
from repro.bytecode.program import CompiledMethod
from repro.runtime.frames import Frame, make_locals
from repro.runtime.interpreter import MJThrow
from repro.runtime.objects import ArrayObject, Instance

Handler = Callable[[Frame], None]


class DispatchContext:
    """Everything a handler may bind at translation time."""

    __slots__ = (
        "vm", "heap", "frames", "program", "statics", "profiler", "stats", "where",
        "chain", "nested_frames",
    )
    # The attributes a source template may name: the VM plumbing.
    PLUMBING = ("vm", "heap", "program", "chain", "nested_frames")

    def __init__(self, vm, profiler=None, stats=None) -> None:
        self.vm = vm
        self.heap = vm.heap
        self.frames = vm.frames
        self.program = vm.program
        self.statics = vm.statics
        # None => emit no profiler code; else the HeapProfiler whose
        # trailers the use handlers stamp inline.
        self.profiler = profiler
        # None => count nothing; else a repro.obs.DispatchStats that
        # compile_method bumps per translated method and compile_run
        # per compiled run. No handler binds it, so telemetry never
        # costs a dispatched instruction.
        self.stats = stats
        # (method, index) of the instruction being translated: the
        # last-use frame its handler stamps. Set by compile_method.
        self.where = None
        # A profiled use handler's last-use chain depth (0 when
        # last_use_depth <= 1: no chain) and its capture.
        self.chain = self.nested_frames = None
        if profiler is not None:
            depth = profiler.last_use_depth
            self.chain = depth if depth > 1 else 0
            self.nested_frames = profiler._nested_frames


def _use_stamp(ctx):
    """What a profiled use handler binds to stamp a trailer inline:
    its last-use frame, the last-use chain depth (0 when
    ``last_use_depth <= 1``, i.e. no chain), and the chain capture."""
    return ctx.where, ctx.chain, ctx.nested_frames


# ---------------------------------------------------------------------------
# per-opcode closure factories: factory(instr, ctx) -> handler
# ---------------------------------------------------------------------------


def _c_invokev(instr, ctx):
    name, argc = instr.args
    npe = f"invoke {name}"
    vm = ctx.vm
    frames = ctx.frames
    program = ctx.program
    # Per-call-site inline cache: receiver class name -> resolved
    # method. lookup_method is deterministic over an immutable class
    # graph, so memoizing it cannot change behaviour.
    cache = {}
    if ctx.profiler is None:

        def op_invokev(frame):
            stack = frame.stack
            args = stack[len(stack) - argc:]
            del stack[len(stack) - argc:]
            recv = stack.pop()
            if recv is None:
                vm.throw("NullPointerException", npe)
            cls_name = recv.class_name if isinstance(recv, Instance) else "Object"
            method = cache.get(cls_name)
            if method is None:
                method = program.lookup_method(cls_name, name)
                if method is None:
                    raise VMError(f"no method {cls_name}.{name}")
                cache[cls_name] = method
            if method.is_native:
                result = vm._call_native(method, recv, args)
                if method.return_descriptor != "void":
                    stack.append(result)
            else:
                frames.append(Frame(method, make_locals(method, args, recv)))

        return op_invokev

    heap = ctx.heap
    where, chain, nested_frames = _use_stamp(ctx)

    def op_invokev_profiled(frame):
        stack = frame.stack
        args = stack[len(stack) - argc:]
        del stack[len(stack) - argc:]
        recv = stack.pop()
        if recv is None:
            vm.throw("NullPointerException", npe)
        trailer = recv.trailer
        if trailer is not None:
            clock = heap.clock
            if trailer.first_use_time == 0:
                trailer.first_use_time = clock
            trailer.last_use_time = clock
            trailer.last_use_frame = where
            if chain:
                trailer.last_use_chain = nested_frames(chain)
        cls_name = recv.class_name if isinstance(recv, Instance) else "Object"
        method = cache.get(cls_name)
        if method is None:
            method = program.lookup_method(cls_name, name)
            if method is None:
                raise VMError(f"no method {cls_name}.{name}")
            cache[cls_name] = method
        if method.is_native:
            result = vm._call_native(method, recv, args)
            if method.return_descriptor != "void":
                stack.append(result)
        else:
            frames.append(Frame(method, make_locals(method, args, recv)))

    return op_invokev_profiled


def _c_invokestatic(instr, ctx):
    cls_name, name, argc = instr.args
    vm = ctx.vm
    frames = ctx.frames
    # Static binding: resolvable at translation time.
    method = ctx.program.lookup_method(cls_name, name)
    if method is None:
        message = f"no method {cls_name}.{name}"

        def op_invokestatic_unbound(frame):
            raise VMError(message)

        return op_invokestatic_unbound
    if method.is_native:
        push_result = method.return_descriptor != "void"

        def op_invokestatic_native(frame):
            stack = frame.stack
            args = stack[len(stack) - argc:]
            del stack[len(stack) - argc:]
            result = vm._call_native(method, None, args)
            if push_result:
                stack.append(result)

        return op_invokestatic_native

    def op_invokestatic(frame):
        stack = frame.stack
        args = stack[len(stack) - argc:]
        del stack[len(stack) - argc:]
        frames.append(Frame(method, make_locals(method, args, None)))

    return op_invokestatic


def _c_invokesuper(instr, ctx):
    start_cls, name, argc = instr.args
    vm = ctx.vm
    frames = ctx.frames
    profiled = ctx.profiler is not None
    if profiled:
        heap = ctx.heap
        where, chain, nested_frames = _use_stamp(ctx)
    method = ctx.program.lookup_method(start_cls, name)
    if method is None:
        message = f"no method {start_cls}.{name}"

        def op_invokesuper_unbound(frame):
            raise VMError(message)

        return op_invokesuper_unbound
    if method.is_native:
        push_result = method.return_descriptor != "void"
        if not profiled:

            def op_invokesuper_native(frame):
                stack = frame.stack
                args = stack[len(stack) - argc:]
                del stack[len(stack) - argc:]
                recv = stack.pop()
                result = vm._call_native(method, recv, args)
                if push_result:
                    stack.append(result)

            return op_invokesuper_native

        def op_invokesuper_native_profiled(frame):
            stack = frame.stack
            args = stack[len(stack) - argc:]
            del stack[len(stack) - argc:]
            recv = stack.pop()
            trailer = recv.trailer
            if trailer is not None:
                clock = heap.clock
                if trailer.first_use_time == 0:
                    trailer.first_use_time = clock
                trailer.last_use_time = clock
                trailer.last_use_frame = where
                if chain:
                    trailer.last_use_chain = nested_frames(chain)
            result = vm._call_native(method, recv, args)
            if push_result:
                stack.append(result)

        return op_invokesuper_native_profiled
    if not profiled:

        def op_invokesuper(frame):
            stack = frame.stack
            args = stack[len(stack) - argc:]
            del stack[len(stack) - argc:]
            recv = stack.pop()
            frames.append(Frame(method, make_locals(method, args, recv)))

        return op_invokesuper

    def op_invokesuper_profiled(frame):
        stack = frame.stack
        args = stack[len(stack) - argc:]
        del stack[len(stack) - argc:]
        recv = stack.pop()
        trailer = recv.trailer
        if trailer is not None:
            clock = heap.clock
            if trailer.first_use_time == 0:
                trailer.first_use_time = clock
            trailer.last_use_time = clock
            trailer.last_use_frame = where
            if chain:
                trailer.last_use_chain = nested_frames(chain)
        frames.append(Frame(method, make_locals(method, args, recv)))

    return op_invokesuper_profiled


def _c_missing_class(cls_name):
    def op_missing_class(frame):
        # Matches the baseline's failure mode (KeyError at execution,
        # not at translation) for an unreachable reference to a class
        # the program does not define.
        raise KeyError(cls_name)

    return op_missing_class


def _c_newinit(instr, ctx):
    cls_name, argc = instr.args
    vm = ctx.vm
    heap = ctx.heap
    frames = ctx.frames
    cls = ctx.program.classes.get(cls_name)
    if cls is None:
        return _c_missing_class(cls_name)
    ctor = cls.ctor
    site = instr.site

    def op_newinit(frame):
        stack = frame.stack
        args = stack[len(stack) - argc:]
        del stack[len(stack) - argc:]
        vm.alloc_site = site
        obj = heap.new_instance(cls)
        stack.append(obj)  # rooted while the ctor runs
        frames.append(Frame(ctor, make_locals(ctor, args, obj)))

    return op_newinit


def _c_superinit(instr, ctx):
    cls_name, argc = instr.args
    frames = ctx.frames
    cls = ctx.program.classes.get(cls_name)
    if cls is None:
        return _c_missing_class(cls_name)
    ctor = cls.ctor

    def op_superinit(frame):
        stack = frame.stack
        args = stack[len(stack) - argc:]
        del stack[len(stack) - argc:]
        this = frame.locals[0]
        frames.append(Frame(ctor, make_locals(ctor, args, this)))

    return op_superinit


def _c_newarray(instr, ctx):
    elem_desc, elem_repr = instr.args
    vm = ctx.vm
    heap = ctx.heap
    site = instr.site

    def op_newarray(frame):
        stack = frame.stack
        length = stack.pop()
        if length < 0:
            vm.throw("IndexOutOfBoundsException", f"array size {length}")
        vm.alloc_site = site
        stack.append(heap.new_array(elem_desc, elem_repr, length))

    return op_newarray


def _c_ret(instr, ctx):
    vm = ctx.vm
    frames = ctx.frames

    def op_ret(frame):
        frames.pop()
        if len(frames) == vm._floor:
            vm._return_value = None

    return op_ret


def _c_retv(instr, ctx):
    vm = ctx.vm
    frames = ctx.frames

    def op_retv(frame):
        value = frame.stack.pop()
        frames.pop()
        if len(frames) == vm._floor:
            vm._return_value = value
        else:
            frames[-1].stack.append(value)

    return op_retv


def _c_const_string(instr, ctx):
    text = instr.args[0]
    site = instr.site
    vm = ctx.vm
    interned_map = ctx.heap.interned

    def op_const_string(frame):
        interned = interned_map.get(text)
        if interned is None:
            vm.alloc_site = site
            interned = vm.new_string(text, excluded=True)
            interned_map[text] = interned
        frame.stack.append(interned)

    return op_const_string


def _c_tostr(instr, ctx):
    vm = ctx.vm
    site = instr.site
    if instr.args[0] == "char":

        def op_tostr_char(frame):
            stack = frame.stack
            vm.alloc_site = site
            stack.append(vm.new_string(chr(stack.pop())))

        return op_tostr_char

    def op_tostr(frame):
        stack = frame.stack
        vm.alloc_site = site
        stack.append(vm.stringify(stack.pop()))

    return op_tostr


def _c_concat(instr, ctx):
    vm = ctx.vm
    site = instr.site

    def op_concat(frame):
        stack = frame.stack
        b = stack.pop()
        a = stack.pop()
        text = vm.string_value(a) + vm.string_value(b)
        vm.alloc_site = site
        stack.append(vm.new_string(text))

    return op_concat


def _c_monenter(instr, ctx):
    vm = ctx.vm
    if ctx.profiler is None:

        def op_monenter(frame):
            obj = frame.stack.pop()
            if obj is None:
                vm.throw("NullPointerException", "monitorenter")
            obj.monitor_depth += 1

        return op_monenter

    heap = ctx.heap
    where, chain, nested_frames = _use_stamp(ctx)

    def op_monenter_profiled(frame):
        obj = frame.stack.pop()
        if obj is None:
            vm.throw("NullPointerException", "monitorenter")
        trailer = obj.trailer
        if trailer is not None:
            clock = heap.clock
            if trailer.first_use_time == 0:
                trailer.first_use_time = clock
            trailer.last_use_time = clock
            trailer.last_use_frame = where
            if chain:
                trailer.last_use_chain = nested_frames(chain)
        obj.monitor_depth += 1

    return op_monenter_profiled


def _c_monexit(instr, ctx):
    vm = ctx.vm
    if ctx.profiler is None:

        def op_monexit(frame):
            obj = frame.stack.pop()
            if obj is None:
                vm.throw("NullPointerException", "monitorexit")
            obj.monitor_depth -= 1

        return op_monexit

    heap = ctx.heap
    where, chain, nested_frames = _use_stamp(ctx)

    def op_monexit_profiled(frame):
        obj = frame.stack.pop()
        if obj is None:
            vm.throw("NullPointerException", "monitorexit")
        trailer = obj.trailer
        if trailer is not None:
            clock = heap.clock
            if trailer.first_use_time == 0:
                trailer.first_use_time = clock
            trailer.last_use_time = clock
            trailer.last_use_frame = where
            if chain:
                trailer.last_use_chain = nested_frames(chain)
        obj.monitor_depth -= 1

    return op_monexit_profiled


def _c_throw(instr, ctx):
    vm = ctx.vm

    def op_throw(frame):
        obj = frame.stack.pop()
        if obj is None:
            vm.throw("NullPointerException", "throw null")
        raise MJThrow(obj)

    return op_throw


OP_COMPILERS = {
    Op.INVOKEV: _c_invokev,
    Op.INVOKESTATIC: _c_invokestatic,
    Op.INVOKESUPER: _c_invokesuper,
    Op.NEWINIT: _c_newinit,
    Op.SUPERINIT: _c_superinit,
    Op.NEWARRAY: _c_newarray,
    Op.RET: _c_ret,
    Op.RETV: _c_retv,
    Op.CONST_STRING: _c_const_string,
    Op.TOSTR: _c_tostr,
    Op.CONCAT: _c_concat,
    Op.MONENTER: _c_monenter,
    Op.MONEXIT: _c_monexit,
    Op.THROW: _c_throw,
}


def _c_unknown(instr, ctx):
    op = instr.op

    def op_unknown(frame):
        # Matches the baseline: unknown opcodes fail at execution time,
        # not at translation time.
        raise VMError(f"unknown opcode {op}")

    return op_unknown


# ---------------------------------------------------------------------------
# source templates: the fusable opcodes and the branches that close a run
# ---------------------------------------------------------------------------

# Opcodes whose handlers cannot allocate (except the throwable of an
# exception, which ends the run), call, return or switch frames: a run
# of them needs no safepoint and no frame lookup between instructions.
FUSABLE = frozenset({
    Op.LOAD, Op.STORE, Op.CONST, Op.CONST_NULL, Op.DUP, Op.POP,
    Op.GETFIELD, Op.PUTFIELD, Op.GETSTATIC, Op.PUTSTATIC,
    Op.ALOAD, Op.ASTORE, Op.ARRAYLEN,
    Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.NEG,
    Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE,
    Op.NOT, Op.CAST_CHAR, Op.REFEQ, Op.REFNE, Op.CHECKCAST, Op.INSTANCEOF,
})
BRANCHES = frozenset({Op.JUMP, Op.JIF, Op.JIT})

# The statements a profiled use handler runs on the object it uses: the
# stamp HeapProfiler.on_use makes, with its last-use frame bound, and
# the chain capture, which a run leaves out when the VM keeps no chain.
_STAMP = """\
trailer = {obj}.trailer
if trailer is not None:
    clock = heap.clock
    if trailer.first_use_time == 0:
        trailer.first_use_time = clock
    trailer.last_use_time = clock
    trailer.last_use_frame = where"""
_CHAIN_STAMP = """\
    if chain:
        trailer.last_use_chain = nested_frames(chain)"""

# Operand fields a compiled run may write as a literal, when the
# translator made them ints: local slots and jump targets.
_LITERAL_FIELDS = frozenset({"slot", "target"})


def _bounds_message(index, data):
    return f"{index} of {len(data)}"


def _cast_message(obj, type_repr):
    return f"{obj.type_name()} to {type_repr}"


# Names a template body may read besides its operands, the frame's
# stack and locals, and DispatchContext.PLUMBING: what no VM owns.
_CONSTANTS = {
    "ArrayObject": ArrayObject,
    "NPE": "NullPointerException",
    "ARITHMETIC": "ArithmeticException",
    "OUT_OF_BOUNDS": "IndexOutOfBoundsException",
    "CLASS_CAST": "ClassCastException",
    "DIV_ZERO": "/ by zero",
    "MOD_ZERO": "% by zero",
    "bounds_message": _bounds_message,
    "cast_message": _cast_message,
}


class _Template:
    """One opcode's semantics as source text.

    ``operands`` are statements that compute, from ``instr`` and
    ``ctx``, each name in ``fields``; they run once per instruction, at
    translation. ``body`` runs per dispatch: it reads the operand stack
    and locals as ``stack`` and ``locals_``, its fields, and otherwise
    only names of ``_CONSTANTS`` and ``DispatchContext.PLUMBING``. A
    line ``@use NAME`` marks where a profiled handler stamps the object
    ``NAME`` holds; without a profiler it is dropped."""

    __slots__ = ("name", "fields", "operands", "body", "uses")

    def __init__(self, name, fields="", operands="", body="") -> None:
        self.name = name
        self.fields = tuple(fields.split())
        self.operands = operands
        self.body = body
        self.uses = "@use " in body

    def lines(self, profiled: bool, chain: bool = True) -> List[str]:
        """The body, its ``@use`` line the stamp (profiled) or nothing."""
        lines = []
        for line in self.body.splitlines():
            if not line.startswith("@use "):
                lines.append(line)
            elif profiled:
                lines += _STAMP.format(obj=line[5:]).splitlines()
                if chain:
                    lines += _CHAIN_STAMP.splitlines()
        return lines


def _binary(name, operator):
    return _Template(name, body=f"b = stack.pop()\nstack[-1] = stack[-1] {operator} b")


_ARG = "{} = instr.args[0]"

TEMPLATES = {
    Op.LOAD: _Template("load", "slot", _ARG.format("slot"), "stack.append(locals_[slot])"),
    Op.STORE: _Template("store", "slot", _ARG.format("slot"), "locals_[slot] = stack.pop()"),
    Op.CONST: _Template("const", "value", _ARG.format("value"), "stack.append(value)"),
    Op.CONST_NULL: _Template("const_null", body="stack.append(None)"),
    Op.DUP: _Template("dup", body="stack.append(stack[-1])"),
    Op.POP: _Template("pop", body="stack.pop()"),
    Op.GETFIELD: _Template("getfield", "field npe", """\
field = instr.args[0]
npe = f"getfield {field}\"""", """\
obj = stack.pop()
if obj is None:
    vm.throw(NPE, npe)
@use obj
stack.append(obj.fields[field])"""),
    Op.PUTFIELD: _Template("putfield", "field npe", """\
field = instr.args[0]
npe = f"putfield {field}\"""", """\
value = stack.pop()
obj = stack.pop()
if obj is None:
    vm.throw(NPE, npe)
@use obj
obj.fields[field] = value
if heap.barrier is not None:
    heap.barrier(obj, value)"""),
    Op.GETSTATIC: _Template("getstatic", "values field", """\
values = ctx.statics[instr.args[0]]
field = instr.args[1]""", "stack.append(values[field])"),
    Op.PUTSTATIC: _Template("putstatic", "values field", """\
values = ctx.statics[instr.args[0]]
field = instr.args[1]""", "values[field] = stack.pop()"),
    Op.ALOAD: _Template("aload", "npe", 'npe = "array load"', """\
index = stack.pop()
arr = stack.pop()
if arr is None:
    vm.throw(NPE, npe)
@use arr
data = arr.data
if index < 0 or index >= len(data):
    vm.throw(OUT_OF_BOUNDS, bounds_message(index, data))
stack.append(data[index])"""),
    Op.ASTORE: _Template("astore", "npe", 'npe = "array store"', """\
value = stack.pop()
index = stack.pop()
arr = stack.pop()
if arr is None:
    vm.throw(NPE, npe)
@use arr
data = arr.data
if index < 0 or index >= len(data):
    vm.throw(OUT_OF_BOUNDS, bounds_message(index, data))
data[index] = value
if heap.barrier is not None:
    heap.barrier(arr, value)"""),
    Op.ARRAYLEN: _Template("arraylen", "npe", 'npe = "array length"', """\
arr = stack.pop()
if arr is None:
    vm.throw(NPE, npe)
@use arr
stack.append(len(arr.data))"""),
    Op.ADD: _binary("add", "+"),
    Op.SUB: _binary("sub", "-"),
    Op.MUL: _binary("mul", "*"),
    Op.DIV: _Template("div", body="""\
b = stack.pop()
a = stack.pop()
if b == 0:
    vm.throw(ARITHMETIC, DIV_ZERO)
q = abs(a) // abs(b)
stack.append(q if (a >= 0) == (b >= 0) else -q)"""),
    Op.MOD: _Template("mod", body="""\
b = stack.pop()
a = stack.pop()
if b == 0:
    vm.throw(ARITHMETIC, MOD_ZERO)
q = abs(a) // abs(b)
q = q if (a >= 0) == (b >= 0) else -q
stack.append(a - q * b)"""),
    Op.NEG: _Template("neg", body="stack[-1] = -stack[-1]"),
    Op.EQ: _binary("eq", "=="),
    Op.NE: _binary("ne", "!="),
    Op.LT: _binary("lt", "<"),
    Op.LE: _binary("le", "<="),
    Op.GT: _binary("gt", ">"),
    Op.GE: _binary("ge", ">="),
    Op.REFEQ: _binary("refeq", "is"),
    Op.REFNE: _binary("refne", "is not"),
    Op.NOT: _Template("not", body="stack[-1] = not stack[-1]"),
    Op.CAST_CHAR: _Template("cast_char", body="stack[-1] = stack[-1] & 0xFFFF"),
    Op.CHECKCAST: _Template("checkcast", "type_repr", _ARG.format("type_repr"), """\
obj = stack[-1]
if obj is not None and not vm.value_conforms(obj, type_repr):
    vm.throw(CLASS_CAST, cast_message(obj, type_repr))"""),
    Op.INSTANCEOF: _Template("instanceof", "cls_name is_object", """\
cls_name = instr.args[0]
is_object = cls_name == "Object\"""", """\
obj = stack.pop()
if obj is None:
    stack.append(False)
elif isinstance(obj, ArrayObject):
    stack.append(is_object)
else:
    stack.append(program.is_subclass(obj.class_name, cls_name))"""),
    Op.JUMP: _Template("jump", "target", _ARG.format("target"), "frame.pc = target"),
    Op.JIF: _Template("jif", "target", _ARG.format("target"), """\
if not stack.pop():
    frame.pc = target"""),
    Op.JIT: _Template("jit", "target", _ARG.format("target"), """\
if stack.pop():
    frame.pc = target"""),
}

_WORD = re.compile(r"(?<![\w.])[A-Za-z_]\w*")


def _bind_frame(lines: List[str]) -> List[str]:
    """``lines`` after binding the frame's operand stack and locals to
    ``stack`` and ``locals_``, each only if ``lines`` name it."""
    text = "\n".join(lines)
    words = set(_WORD.findall(text))
    return [
        f"{name} = frame.{attr}"
        for name, attr in (("stack", "stack"), ("locals_", "locals"))
        if name in words
    ] + text.splitlines()


def _filename(what: str) -> str:
    """Where generated code says it comes from: beside this module, so
    tracebacks and per-package call counts file it under the runtime."""
    return os.path.join(os.path.dirname(__file__), f"<{what}>")


def _indent(lines: List[str], depth: int) -> str:
    pad = " " * depth
    return "".join([f"{pad}{line}\n" for line in lines])


class _Compiled:
    """A template variant compiled for this process: the factory that
    makes its lone handlers, and its body as it goes into a run, with
    ``{field}`` for each operand, with and without the chain capture."""

    __slots__ = ("fields", "factory", "run_body")

    def __init__(self, template: _Template, profiled: bool) -> None:
        self.fields = template.fields + (("where",) if profiled else ())

        def run_body(chain):
            text = "\n".join(template.lines(profiled, chain))
            return _WORD.sub(
                lambda m: f"{{{m[0]}}}" if m[0] in self.fields else m[0], text)

        self.run_body = {chain: run_body(chain) for chain in (False, True)}
        body = template.lines(profiled)
        words = set(_WORD.findall("\n".join(body)))
        setup = [
            f"{name} = ctx.{name}"
            for name in DispatchContext.PLUMBING if name in words
        ] + template.operands.splitlines() + (["where = ctx.where"] if profiled else [])
        name = f"op_{template.name}" + ("_profiled" if profiled else "")
        source = (
            f"def make(instr, ctx):\n{_indent(setup, 4)}"
            f"    def {name}(frame):\n{_indent(_bind_frame(body), 8)}"
            f"    return {name}\n"
        )
        namespace = dict(_CONSTANTS)
        exec(compile(source, _filename(f"{name} template"), "exec"), namespace)
        self.factory = namespace["make"]


# Every opcode's handler factory, without and with a profiler: the
# closure factories, and each template's once compiled in this process.
_FACTORIES = {False: dict(OP_COMPILERS), True: dict(OP_COMPILERS)}
_COMPILED: Dict[Tuple[Op, bool], _Compiled] = {}


def _compiled(op: Op, profiled: bool) -> _Compiled:
    template = TEMPLATES[op]
    key = op, profiled and template.uses
    compiled = _COMPILED.get(key)
    if compiled is None:
        compiled = _COMPILED[key] = _Compiled(template, key[1])
    return compiled


def _factory(op: Op, profiled: bool):
    if op not in TEMPLATES:
        return _c_unknown
    factory = _FACTORIES[profiled][op] = _compiled(op, profiled).factory
    return factory


def compile_run(ctx, method: CompiledMethod, start: int, parts) -> Handler:
    """One function for the run at ``start``: its instructions' template
    bodies in order, with ``frame.pc`` stored one past each part's index
    before it runs, as the dispatch loop would. Each part's operands are
    read from its own handler's closure and reach the code only as names
    in its namespace (``field_3`` is part 3's field), or as literals
    where the translator made them ints; so the source holds template
    text, generated names and integers, never program text."""
    profiled = ctx.profiler is not None
    chain = bool(ctx.chain)
    # Unprofiled, nothing of the profiler's is in reach.
    namespace = dict(_CONSTANTS)
    for name in DispatchContext.PLUMBING:
        value = getattr(ctx, name)
        if value is not None:
            namespace[name] = value
    lines = []
    code = method.code[start:start + len(parts)]
    for k, (instr, part) in enumerate(zip(code, parts)):
        if k:
            lines.append(f"frame.pc = {start + k + 1}")
        compiled = _compiled(instr.op, profiled)
        cells = dict(zip(part.__code__.co_freevars, part.__closure__ or ()))
        names = {}
        for field in compiled.fields:
            value = cells[field].cell_contents
            if field in _LITERAL_FIELDS and type(value) is int:
                names[field] = str(value)
            else:
                names[field] = name = f"{field}_{k}"
                namespace[name] = value
        lines.append(compiled.run_body[chain].format_map(names))
    lines.append(f"return {len(parts) - 1}")
    source = f"def fused_run(frame):\n{_indent(_bind_frame(lines), 4)}"
    exec(compile(source, _filename("fused run"), "exec"), namespace)
    run = namespace.pop("fused_run")
    run.parts = parts
    run.source = source
    stats = ctx.stats
    if stats is not None:
        stats.runs_compiled += 1
    return run


def _first_dispatch(vm, method: CompiledMethod, start: int, parts) -> Handler:
    """The handler at a run's start until the run is first dispatched:
    it has the VM compile the run into one function, put in its place,
    and runs that function instead."""

    def op_run(frame):
        return vm.compile_run(method, start)(frame)

    op_run.parts = parts
    return op_run


def _runs(method: CompiledMethod):
    """``(start, end)`` of each straight-line run of two or more
    instructions: fusable opcodes, optionally closed by one branch. A
    run never continues into a jump target or a catch handler, so
    every pc reached other than by falling through starts its own."""
    code = method.code
    targets = {instr.args[0] for instr in code if instr.op in BRANCHES}
    targets.update(entry.handler for entry in method.exception_table)
    start = 0
    while start < len(code):
        end = start
        while end < len(code) and (end == start or end not in targets):
            op = code[end].op
            if op in FUSABLE:
                end += 1
                continue
            if op in BRANCHES:
                end += 1
            break
        if end - start >= 2:
            yield start, end
        start = max(end, start + 1)


def compile_method(
    method: CompiledMethod, ctx: DispatchContext
) -> List[Handler]:
    """Translate one method's bytecode into handler closures, then
    replace the handler at the start of each straight-line run of two
    or more instructions with a stub that compiles the run into one
    function at its first dispatch."""
    profiled = ctx.profiler is not None
    factories = _FACTORIES[profiled]
    handlers: List[Handler] = []
    for index, instr in enumerate(method.code):
        ctx.where = (method, index)
        factory = factories.get(instr.op) or _factory(instr.op, profiled)
        handlers.append(factory(instr, ctx))
    for start, end in _runs(method):
        handlers[start] = _first_dispatch(ctx.vm, method, start, tuple(handlers[start:end]))
    stats = ctx.stats
    if stats is not None:
        stats.methods_translated += 1
        stats.handlers_emitted += len(handlers)
    return handlers
