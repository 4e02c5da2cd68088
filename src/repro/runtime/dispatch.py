"""The per-method handler compiler behind the ``compiled`` engine.

At first execution of a method, :func:`compile_method` translates its
bytecode into a list of *handler closures*, one per instruction. Each
closure has its operands, resolved callees, and VM plumbing (heap,
frame stack, statics) bound as cell variables, so the dispatch loop in
:mod:`repro.runtime.compiled` does no opcode comparison and no operand
decoding — it indexes ``handlers[frame.pc]`` and calls.

**Source templates.** Every opcode has its semantics written once, as
a source template (:data:`TEMPLATES`), in an unprofiled and an
inline-stamp profiled variant. Three opcodes have a second template,
picked per instruction at translation (:data:`PICKS`): ``INVOKESTATIC``
and ``INVOKESUPER`` by whether the callee is native, ``TOSTR`` by
whether it converts a ``char``. On first use in a process a template
is compiled into a factory, which makes the opcode's handler closures.
When translating an instruction raises ``KeyError`` or ``VMError`` (a
class or method the program does not define, an opcode with no
template), its handler raises that error when it runs, as the baseline
does: failure happens at execution, never at translation.

**Fused runs.** Most instructions cannot allocate, call, return or
switch frames (:data:`FUSABLE`: locals, constants, stack shuffles,
fields, statics, array access, arithmetic, comparisons, casts). A
straight-line run of two or more of them, optionally closed by one
``JUMP``/``JIF``/``JIT``, is dispatched once, as one function compiled
from the run's instructions (:func:`compile_run`) that stores
``frame.pc`` one past each part's index before it runs, exactly as the
loop would. The run is compiled at its first dispatch: until then the
handler at its start is a stub that has the VM compile the run and put
the function in its place. A run never continues into a jump target,
a catch handler or an instruction whose translation failed, so every
pc reached other than by falling through starts its own run; the other
pcs of a run keep their single handler. The stub and the function
expose the run's handlers as ``parts``. The run returns how many
instructions it ran past its first, for the loop's count; an exception
thrown mid-run leaves ``frame.pc`` one past the part that threw, from
which the loop corrects the count. A compiled run is the run's
template bodies concatenated: it binds the stack and locals once and
reads each part's operands from that part's closure. Operands,
last-use frames and VM plumbing reach generated code only as names in
its namespace; its source holds template text, generated names
(``field_3`` is part 3's field) and translator-made integers (local
slots, jump targets, pcs), never program text.

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
* **Inline use stamping.** When a profiler is attached, every use-op
  handler stamps the object's trailer itself with the one stamp
  template, :data:`_STAMP`, instead of calling
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
    PLUMBING = ("vm", "heap", "frames", "program", "chain", "nested_frames")

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


# ---------------------------------------------------------------------------
# source templates: one per opcode, and a second for the opcodes in PICKS
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
    "Instance": Instance,
    "Frame": Frame,
    "make_locals": make_locals,
    "MJThrow": MJThrow,
    "VMError": VMError,
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
    translation, and may raise ``KeyError`` or ``VMError`` for a name
    the program does not define. ``body`` runs per dispatch: it reads the operand stack
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
_SITE = "site = instr.site"
# A call's arguments, popped off the operand stack.
_ARGS = """\
args = stack[len(stack) - argc:]
del stack[len(stack) - argc:]"""
# A static or super call's callee, resolved at translation.
_CALLEE = """\
cls_name, name, argc = instr.args
method = ctx.program.lookup_method(cls_name, name)
if method is None:
    raise VMError(f"no method {cls_name}.{name}")"""
_NATIVE_CALLEE = _CALLEE + """
push_result = method.return_descriptor != "void\""""
# A constructor call's class and constructor.
_CTOR = """\
cls = ctx.program.classes[instr.args[0]]
ctor = cls.ctor
argc = instr.args[1]"""

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
    # The opcodes below never join a fused run.
    Op.INVOKEV: _Template("invokev", "name argc npe cache", """\
name, argc = instr.args
npe = f"invoke {name}"
cache = {}""", f"""\
{_ARGS}
recv = stack.pop()
if recv is None:
    vm.throw(NPE, npe)
@use recv
cls_name = recv.class_name if isinstance(recv, Instance) else "Object"
method = cache.get(cls_name)
if method is None:
    method = program.lookup_method(cls_name, name)
    if method is None:
        raise VMError(f"no method {{cls_name}}.{{name}}")
    cache[cls_name] = method
if method.is_native:
    result = vm._call_native(method, recv, args)
    if method.return_descriptor != "void":
        stack.append(result)
else:
    frames.append(Frame(method, make_locals(method, args, recv)))"""),
    Op.INVOKESTATIC: _Template("invokestatic", "method argc", _CALLEE, f"""\
{_ARGS}
frames.append(Frame(method, make_locals(method, args, None)))"""),
    Op.INVOKESUPER: _Template("invokesuper", "method argc", _CALLEE, f"""\
{_ARGS}
recv = stack.pop()
@use recv
frames.append(Frame(method, make_locals(method, args, recv)))"""),
    # The new object is on the stack, so rooted, while its ctor runs.
    Op.NEWINIT: _Template("newinit", "cls ctor argc site", f"""\
{_CTOR}
site = instr.site""", f"""\
{_ARGS}
vm.alloc_site = site
obj = heap.new_instance(cls)
stack.append(obj)
frames.append(Frame(ctor, make_locals(ctor, args, obj)))"""),
    Op.SUPERINIT: _Template("superinit", "ctor argc", _CTOR, f"""\
{_ARGS}
this = frame.locals[0]
frames.append(Frame(ctor, make_locals(ctor, args, this)))"""),
    Op.NEWARRAY: _Template("newarray", "elem_desc elem_repr site", """\
elem_desc, elem_repr = instr.args
site = instr.site""", """\
length = stack.pop()
if length < 0:
    vm.throw(OUT_OF_BOUNDS, f"array size {length}")
vm.alloc_site = site
stack.append(heap.new_array(elem_desc, elem_repr, length))"""),
    Op.RET: _Template("ret", body="""\
frames.pop()
if len(frames) == vm._floor:
    vm._return_value = None"""),
    Op.RETV: _Template("retv", body="""\
value = frame.stack.pop()
frames.pop()
if len(frames) == vm._floor:
    vm._return_value = value
else:
    frames[-1].stack.append(value)"""),
    Op.CONST_STRING: _Template("const_string", "text site interned_map", """\
text = instr.args[0]
site = instr.site
interned_map = ctx.heap.interned""", """\
interned = interned_map.get(text)
if interned is None:
    vm.alloc_site = site
    interned = vm.new_string(text, excluded=True)
    interned_map[text] = interned
frame.stack.append(interned)"""),
    Op.TOSTR: _Template("tostr", "site", _SITE, """\
vm.alloc_site = site
stack.append(vm.stringify(stack.pop()))"""),
    Op.CONCAT: _Template("concat", "site", _SITE, """\
b = stack.pop()
a = stack.pop()
text = vm.string_value(a) + vm.string_value(b)
vm.alloc_site = site
stack.append(vm.new_string(text))"""),
    Op.MONENTER: _Template("monenter", body="""\
obj = frame.stack.pop()
if obj is None:
    vm.throw(NPE, "monitorenter")
@use obj
obj.monitor_depth += 1"""),
    Op.MONEXIT: _Template("monexit", body="""\
obj = frame.stack.pop()
if obj is None:
    vm.throw(NPE, "monitorexit")
@use obj
obj.monitor_depth -= 1"""),
    Op.THROW: _Template("throw", body="""\
obj = frame.stack.pop()
if obj is None:
    vm.throw(NPE, "throw null")
raise MJThrow(obj)"""),
}


def _native_callee(instr, ctx) -> bool:
    method = ctx.program.lookup_method(instr.args[0], instr.args[1])
    return method is not None and method.is_native


# The opcodes with a second template, and what picks it for an
# instruction at translation: a native callee, a char to convert.
PICKS = {
    Op.INVOKESTATIC: (_native_callee, _Template(
        "invokestatic_native", "method argc push_result", _NATIVE_CALLEE, f"""\
{_ARGS}
result = vm._call_native(method, None, args)
if push_result:
    stack.append(result)""")),
    Op.INVOKESUPER: (_native_callee, _Template(
        "invokesuper_native", "method argc push_result", _NATIVE_CALLEE, f"""\
{_ARGS}
recv = stack.pop()
@use recv
result = vm._call_native(method, recv, args)
if push_result:
    stack.append(result)""")),
    Op.TOSTR: (lambda instr, ctx: instr.args[0] == "char", _Template(
        "tostr_char", "site", _SITE, """\
vm.alloc_site = site
stack.append(vm.new_string(chr(stack.pop())))""")),
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


# Where generated code says it comes from: beside this module, so
# tracebacks and per-package call counts file it under the runtime.
_TEMPLATE_FILE = os.path.join(os.path.dirname(__file__), "<template>")
_RUN_FILE = os.path.join(os.path.dirname(__file__), "<fused run>")


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
        exec(compile(source, _TEMPLATE_FILE, "exec"), namespace)
        self.factory = namespace["make"]


# Each template variant, and each opcode's handler factory without and
# with a profiler, once made in this process.
_COMPILED: Dict[Tuple[_Template, bool], _Compiled] = {}
_FACTORIES: Dict[bool, Dict[Op, Callable]] = {False: {}, True: {}}


def _compiled(template: _Template, profiled: bool) -> _Compiled:
    key = template, profiled and template.uses
    compiled = _COMPILED.get(key)
    if compiled is None:
        compiled = _COMPILED[key] = _Compiled(template, key[1])
    return compiled


def _factory(op: Op, profiled: bool):
    template = TEMPLATES.get(op)
    if template is None:
        raise VMError(f"unknown opcode {op}")
    factory = _compiled(template, profiled).factory
    if op in PICKS:
        pick, other = PICKS[op]
        first, second = factory, _compiled(other, profiled).factory

        def factory(instr, ctx):
            return (second if pick(instr, ctx) else first)(instr, ctx)

    _FACTORIES[profiled][op] = factory
    return factory


def _deferred(error: Exception) -> Handler:
    """The handler of an instruction whose translation raised ``error``:
    it raises the same error when it runs, and only then, as the
    baseline does."""

    def op_raise(frame):
        raise error.with_traceback(None)

    return op_raise


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
        compiled = _compiled(TEMPLATES[instr.op], profiled)
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
    exec(compile(source, _RUN_FILE, "exec"), namespace)
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


def _runs(method: CompiledMethod, failed: List[int]):
    """``(start, end)`` of each straight-line run of two or more
    instructions: fusable opcodes, optionally closed by one branch. A
    run never continues into a jump target or a catch handler, so
    every pc reached other than by falling through starts its own. An
    instruction whose translation ``failed`` is in no run."""
    code = method.code
    starts = {instr.args[0] for instr in code if instr.op in BRANCHES}
    starts.update(entry.handler for entry in method.exception_table)
    for index in failed:
        starts.update((index, index + 1))
    start = 0
    while start < len(code):
        end = start
        while end < len(code) and (end == start or end not in starts):
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
    function at its first dispatch. An instruction whose translation
    raises ``KeyError`` or ``VMError`` gets a handler that raises it."""
    profiled = ctx.profiler is not None
    factories = _FACTORIES[profiled]
    handlers: List[Handler] = []
    failed: List[int] = []
    for index, instr in enumerate(method.code):
        ctx.where = (method, index)
        try:
            factory = factories.get(instr.op) or _factory(instr.op, profiled)
            handlers.append(factory(instr, ctx))
        except (KeyError, VMError) as error:
            handlers.append(_deferred(error))
            failed.append(index)
    for start, end in _runs(method, failed):
        handlers[start] = _first_dispatch(ctx.vm, method, start, tuple(handlers[start:end]))
    stats = ctx.stats
    if stats is not None:
        stats.methods_translated += 1
        stats.handlers_emitted += len(handlers)
    return handlers
