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
``JUMP``/``JIF``/``JIT``, is dispatched once: the handler at the run's
start is replaced by one closure that calls the run's own handlers in
order, setting ``frame.pc`` one past each part's index before it runs,
exactly as the loop would. A run never continues into a jump target or
catch handler, so every pc reached other than by falling through starts
its own run; the other pcs of a run keep their single handler. Nothing
here generates code: each opcode's semantics stays in its one factory,
and a fused closure exposes its handlers as ``parts``. The run returns
how many instructions it ran past its first, for the loop's count; an
exception thrown mid-run leaves ``frame.pc`` one past the part that
threw, from which the loop corrects the count.

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
  closure contains *no profiler code at all* — not a disabled hook,
  none. ``tests/runtime/test_dispatch.py`` asserts this by inspecting
  the handlers' code objects.
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
:class:`~repro.runtime.compiled.CompiledInterpreter`.
"""

from __future__ import annotations

from typing import Callable, List

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
    )

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
        # compile_method bumps per translated method. No handler binds
        # it, so telemetry never costs a dispatched instruction.
        self.stats = stats
        # (method, index) of the instruction being translated: the
        # last-use frame its handler stamps. Set by compile_method.
        self.where = None


def _use_stamp(ctx):
    """What a profiled use handler binds to stamp a trailer inline:
    its last-use frame, the last-use chain depth (0 when
    ``last_use_depth <= 1``, i.e. no chain), and the chain capture."""
    profiler = ctx.profiler
    depth = profiler.last_use_depth
    return ctx.where, (depth if depth > 1 else 0), profiler._nested_frames


# ---------------------------------------------------------------------------
# per-opcode closure factories: factory(instr, ctx) -> handler
# ---------------------------------------------------------------------------


def _c_load(instr, ctx):
    slot = instr.args[0]

    def op_load(frame):
        frame.stack.append(frame.locals[slot])

    return op_load


def _c_store(instr, ctx):
    slot = instr.args[0]

    def op_store(frame):
        frame.locals[slot] = frame.stack.pop()

    return op_store


def _c_const(instr, ctx):
    value = instr.args[0]

    def op_const(frame):
        frame.stack.append(value)

    return op_const


def _c_const_null(instr, ctx):
    def op_const_null(frame):
        frame.stack.append(None)

    return op_const_null


def _c_getfield(instr, ctx):
    field = instr.args[0]
    npe = f"getfield {field}"
    vm = ctx.vm
    if ctx.profiler is None:

        def op_getfield(frame):
            stack = frame.stack
            obj = stack.pop()
            if obj is None:
                vm.throw("NullPointerException", npe)
            stack.append(obj.fields[field])

        return op_getfield

    heap = ctx.heap
    where, chain, nested_frames = _use_stamp(ctx)

    def op_getfield_profiled(frame):
        stack = frame.stack
        obj = stack.pop()
        if obj is None:
            vm.throw("NullPointerException", npe)
        trailer = obj.trailer
        if trailer is not None:
            clock = heap.clock
            if trailer.first_use_time == 0:
                trailer.first_use_time = clock
            trailer.last_use_time = clock
            trailer.last_use_frame = where
            if chain:
                trailer.last_use_chain = nested_frames(chain)
        stack.append(obj.fields[field])

    return op_getfield_profiled


def _c_putfield(instr, ctx):
    field = instr.args[0]
    npe = f"putfield {field}"
    vm = ctx.vm
    heap = ctx.heap
    if ctx.profiler is None:

        def op_putfield(frame):
            stack = frame.stack
            value = stack.pop()
            obj = stack.pop()
            if obj is None:
                vm.throw("NullPointerException", npe)
            obj.fields[field] = value
            if heap.barrier is not None:
                heap.barrier(obj, value)

        return op_putfield

    where, chain, nested_frames = _use_stamp(ctx)

    def op_putfield_profiled(frame):
        stack = frame.stack
        value = stack.pop()
        obj = stack.pop()
        if obj is None:
            vm.throw("NullPointerException", npe)
        trailer = obj.trailer
        if trailer is not None:
            clock = heap.clock
            if trailer.first_use_time == 0:
                trailer.first_use_time = clock
            trailer.last_use_time = clock
            trailer.last_use_frame = where
            if chain:
                trailer.last_use_chain = nested_frames(chain)
        obj.fields[field] = value
        if heap.barrier is not None:
            heap.barrier(obj, value)

    return op_putfield_profiled


def _c_getstatic(instr, ctx):
    cls_name, field = instr.args
    values = ctx.statics[cls_name]

    def op_getstatic(frame):
        frame.stack.append(values[field])

    return op_getstatic


def _c_putstatic(instr, ctx):
    cls_name, field = instr.args
    values = ctx.statics[cls_name]

    def op_putstatic(frame):
        values[field] = frame.stack.pop()

    return op_putstatic


def _c_aload(instr, ctx):
    vm = ctx.vm
    if ctx.profiler is None:

        def op_aload(frame):
            stack = frame.stack
            index = stack.pop()
            arr = stack.pop()
            if arr is None:
                vm.throw("NullPointerException", "array load")
            data = arr.data
            if index < 0 or index >= len(data):
                vm.throw("IndexOutOfBoundsException", f"{index} of {len(data)}")
            stack.append(data[index])

        return op_aload

    heap = ctx.heap
    where, chain, nested_frames = _use_stamp(ctx)

    def op_aload_profiled(frame):
        stack = frame.stack
        index = stack.pop()
        arr = stack.pop()
        if arr is None:
            vm.throw("NullPointerException", "array load")
        trailer = arr.trailer
        if trailer is not None:
            clock = heap.clock
            if trailer.first_use_time == 0:
                trailer.first_use_time = clock
            trailer.last_use_time = clock
            trailer.last_use_frame = where
            if chain:
                trailer.last_use_chain = nested_frames(chain)
        data = arr.data
        if index < 0 or index >= len(data):
            vm.throw("IndexOutOfBoundsException", f"{index} of {len(data)}")
        stack.append(data[index])

    return op_aload_profiled


def _c_astore(instr, ctx):
    vm = ctx.vm
    heap = ctx.heap
    if ctx.profiler is None:

        def op_astore(frame):
            stack = frame.stack
            value = stack.pop()
            index = stack.pop()
            arr = stack.pop()
            if arr is None:
                vm.throw("NullPointerException", "array store")
            data = arr.data
            if index < 0 or index >= len(data):
                vm.throw("IndexOutOfBoundsException", f"{index} of {len(data)}")
            data[index] = value
            if heap.barrier is not None:
                heap.barrier(arr, value)

        return op_astore

    where, chain, nested_frames = _use_stamp(ctx)

    def op_astore_profiled(frame):
        stack = frame.stack
        value = stack.pop()
        index = stack.pop()
        arr = stack.pop()
        if arr is None:
            vm.throw("NullPointerException", "array store")
        trailer = arr.trailer
        if trailer is not None:
            clock = heap.clock
            if trailer.first_use_time == 0:
                trailer.first_use_time = clock
            trailer.last_use_time = clock
            trailer.last_use_frame = where
            if chain:
                trailer.last_use_chain = nested_frames(chain)
        data = arr.data
        if index < 0 or index >= len(data):
            vm.throw("IndexOutOfBoundsException", f"{index} of {len(data)}")
        data[index] = value
        if heap.barrier is not None:
            heap.barrier(arr, value)

    return op_astore_profiled


def _c_arraylen(instr, ctx):
    vm = ctx.vm
    if ctx.profiler is None:

        def op_arraylen(frame):
            stack = frame.stack
            arr = stack.pop()
            if arr is None:
                vm.throw("NullPointerException", "array length")
            stack.append(len(arr.data))

        return op_arraylen

    heap = ctx.heap
    where, chain, nested_frames = _use_stamp(ctx)

    def op_arraylen_profiled(frame):
        stack = frame.stack
        arr = stack.pop()
        if arr is None:
            vm.throw("NullPointerException", "array length")
        trailer = arr.trailer
        if trailer is not None:
            clock = heap.clock
            if trailer.first_use_time == 0:
                trailer.first_use_time = clock
            trailer.last_use_time = clock
            trailer.last_use_frame = where
            if chain:
                trailer.last_use_chain = nested_frames(chain)
        stack.append(len(arr.data))

    return op_arraylen_profiled


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


def _c_jump(instr, ctx):
    target = instr.args[0]

    def op_jump(frame):
        frame.pc = target

    return op_jump


def _c_jif(instr, ctx):
    target = instr.args[0]

    def op_jif(frame):
        if not frame.stack.pop():
            frame.pc = target

    return op_jif


def _c_jit(instr, ctx):
    target = instr.args[0]

    def op_jit(frame):
        if frame.stack.pop():
            frame.pc = target

    return op_jit


def _c_add(instr, ctx):
    def op_add(frame):
        stack = frame.stack
        b = stack.pop()
        stack[-1] = stack[-1] + b

    return op_add


def _c_sub(instr, ctx):
    def op_sub(frame):
        stack = frame.stack
        b = stack.pop()
        stack[-1] = stack[-1] - b

    return op_sub


def _c_mul(instr, ctx):
    def op_mul(frame):
        stack = frame.stack
        b = stack.pop()
        stack[-1] = stack[-1] * b

    return op_mul


def _c_div(instr, ctx):
    vm = ctx.vm

    def op_div(frame):
        stack = frame.stack
        b = stack.pop()
        a = stack.pop()
        if b == 0:
            vm.throw("ArithmeticException", "/ by zero")
        q = abs(a) // abs(b)
        stack.append(q if (a >= 0) == (b >= 0) else -q)

    return op_div


def _c_mod(instr, ctx):
    vm = ctx.vm

    def op_mod(frame):
        stack = frame.stack
        b = stack.pop()
        a = stack.pop()
        if b == 0:
            vm.throw("ArithmeticException", "% by zero")
        q = abs(a) // abs(b)
        q = q if (a >= 0) == (b >= 0) else -q
        stack.append(a - q * b)

    return op_mod


def _c_neg(instr, ctx):
    def op_neg(frame):
        stack = frame.stack
        stack[-1] = -stack[-1]

    return op_neg


def _c_eq(instr, ctx):
    def op_eq(frame):
        stack = frame.stack
        b = stack.pop()
        stack[-1] = stack[-1] == b

    return op_eq


def _c_ne(instr, ctx):
    def op_ne(frame):
        stack = frame.stack
        b = stack.pop()
        stack[-1] = stack[-1] != b

    return op_ne


def _c_lt(instr, ctx):
    def op_lt(frame):
        stack = frame.stack
        b = stack.pop()
        stack[-1] = stack[-1] < b

    return op_lt


def _c_le(instr, ctx):
    def op_le(frame):
        stack = frame.stack
        b = stack.pop()
        stack[-1] = stack[-1] <= b

    return op_le


def _c_gt(instr, ctx):
    def op_gt(frame):
        stack = frame.stack
        b = stack.pop()
        stack[-1] = stack[-1] > b

    return op_gt


def _c_ge(instr, ctx):
    def op_ge(frame):
        stack = frame.stack
        b = stack.pop()
        stack[-1] = stack[-1] >= b

    return op_ge


def _c_refeq(instr, ctx):
    def op_refeq(frame):
        stack = frame.stack
        b = stack.pop()
        stack[-1] = stack[-1] is b

    return op_refeq


def _c_refne(instr, ctx):
    def op_refne(frame):
        stack = frame.stack
        b = stack.pop()
        stack[-1] = stack[-1] is not b

    return op_refne


def _c_not(instr, ctx):
    def op_not(frame):
        stack = frame.stack
        stack[-1] = not stack[-1]

    return op_not


def _c_cast_char(instr, ctx):
    def op_cast_char(frame):
        stack = frame.stack
        stack[-1] = stack[-1] & 0xFFFF

    return op_cast_char


def _c_pop(instr, ctx):
    def op_pop(frame):
        frame.stack.pop()

    return op_pop


def _c_dup(instr, ctx):
    def op_dup(frame):
        stack = frame.stack
        stack.append(stack[-1])

    return op_dup


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


def _c_checkcast(instr, ctx):
    type_repr = instr.args[0]
    vm = ctx.vm

    def op_checkcast(frame):
        obj = frame.stack[-1]
        if obj is not None and not vm.value_conforms(obj, type_repr):
            vm.throw("ClassCastException", f"{obj.type_name()} to {type_repr}")

    return op_checkcast


def _c_instanceof(instr, ctx):
    target = instr.args[0]
    is_object = target == "Object"
    program = ctx.program

    def op_instanceof(frame):
        stack = frame.stack
        obj = stack.pop()
        if obj is None:
            stack.append(False)
        elif isinstance(obj, ArrayObject):
            stack.append(is_object)
        else:
            stack.append(program.is_subclass(obj.class_name, target))

    return op_instanceof


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
    Op.LOAD: _c_load,
    Op.STORE: _c_store,
    Op.CONST: _c_const,
    Op.CONST_NULL: _c_const_null,
    Op.GETFIELD: _c_getfield,
    Op.PUTFIELD: _c_putfield,
    Op.GETSTATIC: _c_getstatic,
    Op.PUTSTATIC: _c_putstatic,
    Op.ALOAD: _c_aload,
    Op.ASTORE: _c_astore,
    Op.ARRAYLEN: _c_arraylen,
    Op.INVOKEV: _c_invokev,
    Op.INVOKESTATIC: _c_invokestatic,
    Op.INVOKESUPER: _c_invokesuper,
    Op.NEWINIT: _c_newinit,
    Op.SUPERINIT: _c_superinit,
    Op.NEWARRAY: _c_newarray,
    Op.RET: _c_ret,
    Op.RETV: _c_retv,
    Op.JUMP: _c_jump,
    Op.JIF: _c_jif,
    Op.JIT: _c_jit,
    Op.ADD: _c_add,
    Op.SUB: _c_sub,
    Op.MUL: _c_mul,
    Op.DIV: _c_div,
    Op.MOD: _c_mod,
    Op.NEG: _c_neg,
    Op.EQ: _c_eq,
    Op.NE: _c_ne,
    Op.LT: _c_lt,
    Op.LE: _c_le,
    Op.GT: _c_gt,
    Op.GE: _c_ge,
    Op.REFEQ: _c_refeq,
    Op.REFNE: _c_refne,
    Op.NOT: _c_not,
    Op.CAST_CHAR: _c_cast_char,
    Op.POP: _c_pop,
    Op.DUP: _c_dup,
    Op.CONST_STRING: _c_const_string,
    Op.TOSTR: _c_tostr,
    Op.CONCAT: _c_concat,
    Op.CHECKCAST: _c_checkcast,
    Op.INSTANCEOF: _c_instanceof,
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


def _fuse(start: int, parts: List[Handler]) -> Handler:
    """One handler for the run ``parts`` at ``start``: each part runs
    with ``frame.pc`` one past its own index, as if dispatched alone
    (the loop has already set it for the first). Returns the number of
    instructions beyond the first, which the loop adds to its count."""
    first = parts[0]
    rest = tuple(zip(range(start + 2, start + 1 + len(parts)), parts[1:]))
    extra = len(rest)

    def op_run(frame):
        first(frame)
        for pc, part in rest:
            frame.pc = pc
            part(frame)
        return extra

    op_run.parts = tuple(parts)
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
    or more instructions with one closure over the run's handlers."""
    handlers: List[Handler] = []
    for index, instr in enumerate(method.code):
        factory = OP_COMPILERS.get(instr.op, _c_unknown)
        ctx.where = (method, index)
        handlers.append(factory(instr, ctx))
    for start, end in _runs(method):
        handlers[start] = _fuse(start, handlers[start:end])
    stats = ctx.stats
    if stats is not None:
        stats.methods_translated += 1
        stats.handlers_emitted += len(handlers)
    return handlers
