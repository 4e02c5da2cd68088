"""The bytecode interpreter.

Executes a :class:`repro.bytecode.program.CompiledProgram` over the
simulated heap. When a profiler is attached (see
:mod:`repro.core.profiler`), the interpreter reports:

* every allocation, with the allocation-site id of the allocating
  instruction and the current call chain (*nested allocation site*);
* every *object use* — getfield, putfield, invoking a method on the
  object, monitor enter/exit, array element access and length, and
  handle dereference inside native methods (§2.1.1's five event kinds);
* a safe point at every instruction boundary where the profiler may run
  a *deep GC* (collect → run finalizers → collect) and take a sample.

The interpreter is deterministic: no wall-clock, no hashing order
dependence on measurement paths.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import MiniJavaException, OutOfMemory, VMError
from repro.bytecode.opcodes import Op
from repro.bytecode.program import CompiledMethod, CompiledProgram
from repro.runtime.frames import Frame, make_locals
from repro.runtime.gc import MarkSweepCollector
from repro.runtime.heap import Heap
from repro.runtime.objects import ArrayObject, HeapObject, Instance


class MJThrow(Exception):
    """Internal signal: a mini-Java throwable is propagating."""

    __slots__ = ("obj",)

    def __init__(self, obj: Instance) -> None:
        super().__init__(obj.class_name)
        self.obj = obj


class ProgramResult:
    """Outcome of a program run: output and cost counters.

    ``finalizer_errors`` counts mini-Java exceptions thrown (and, as in
    Java, swallowed) by finalize() methods during the run — invisible
    in stdout, so surfaced here and in the CLI summaries.
    """

    __slots__ = ("stdout", "instructions", "heap_stats", "clock", "finalizer_errors")

    def __init__(
        self,
        stdout: List[str],
        instructions: int,
        heap_stats,
        clock: int,
        finalizer_errors: int = 0,
    ) -> None:
        self.stdout = stdout
        self.instructions = instructions
        self.heap_stats = heap_stats
        self.clock = clock
        self.finalizer_errors = finalizer_errors


class Interpreter:
    """A mini-JVM instance bound to one compiled program."""

    def __init__(
        self,
        program: CompiledProgram,
        max_heap: Optional[int] = None,
        profiler=None,
        collector_factory=None,
        natives=None,
        liveness_roots: bool = False,
        telemetry=None,
    ) -> None:
        self.program = program
        self.heap = Heap(max_bytes=max_heap)
        # Optional repro.obs.Telemetry. Observes only: spans and metric
        # updates read the byte clock but never advance it, so telemetry
        # on/off cannot change stdout, instruction counts, or profiles.
        self.telemetry = telemetry
        if telemetry is not None:
            self.heap.telemetry = telemetry
            telemetry.bind_clock(lambda: self.heap.clock)
        self.heap.gc_request = self.full_gc
        factory = collector_factory or MarkSweepCollector
        self.collector = factory(self.heap, program)
        if hasattr(self.collector, "should_collect_minor"):
            self.heap.gc_poll = self.collector.should_collect_minor
        self.frames: List[Frame] = []
        self.statics: Dict[str, Dict[str, object]] = {}
        self.stdout: List[str] = []
        self.instr_count = 0
        self.alloc_site: Optional[int] = None  # site id of the allocating instr
        self._return_value: object = None
        self._sampling = False
        self._finalizer_errors = 0
        self._vm_sites: Dict[str, int] = {}
        if natives is None:
            from repro.runtime.natives import default_natives

            natives = default_natives()
        self.natives = natives
        self.profiler = profiler
        if profiler is not None:
            profiler.attach(self)
            self.heap.profiler = profiler
            self.heap.note_use = profiler.on_use
        # Agesen-style liveness-aided GC (§5.1): dead local reference
        # slots are excluded from the root set, so objects held only by
        # dead locals are collected without any source rewrite.
        self.liveness_roots = liveness_roots
        self._liveness_cache: Dict[str, object] = {}
        self._init_statics()

    # ------------------------------------------------------------------
    # setup & roots
    # ------------------------------------------------------------------

    def _init_statics(self) -> None:
        for name, cls in self.program.classes.items():
            values: Dict[str, object] = {}
            for field in cls.static_fields:
                desc = cls.static_descriptors[field]
                if desc == "ref":
                    values[field] = None
                elif desc == "boolean":
                    values[field] = False
                else:
                    values[field] = 0
            self.statics[name] = values

    def iter_roots(self):
        """GC roots: frame locals and stacks, static fields, interned
        strings. (The collector adds temp roots and the finalize queue.)

        With ``liveness_roots`` enabled, a frame's dead local slots are
        skipped (the operand stack and ``this`` are always included)."""
        for frame in self.frames:
            if not self.liveness_roots or frame.method.is_native:
                yield from frame.iter_refs()
                continue
            live = self._method_liveness(frame.method)
            live_slots = live.live_slots_at(frame.pc)
            keep_this = 0 if frame.method.is_static else 1
            for slot, value in enumerate(frame.locals):
                if isinstance(value, HeapObject) and (
                    slot < keep_this or slot in live_slots
                ):
                    yield value
            for value in frame.stack:
                if isinstance(value, HeapObject):
                    yield value
        for values in self.statics.values():
            for value in values.values():
                if isinstance(value, HeapObject):
                    yield value
        yield from self.heap.interned.values()

    def _method_liveness(self, method: CompiledMethod):
        key = method.qualified_name
        cached = self._liveness_cache.get(key)
        if cached is None:
            from repro.analysis.liveness import liveness

            cached = self._liveness_cache[key] = liveness(method)
        return cached

    # ------------------------------------------------------------------
    # GC entry points
    # ------------------------------------------------------------------

    def full_gc(self) -> int:
        """One synchronous full (major) collection."""
        return self.collector.collect(self.iter_roots(), force_major=True)

    def run_finalizers(self) -> int:
        """Run every queued finalizer; returns how many ran."""
        ran = 0
        while self.collector.finalize_queue:
            obj = self.collector.finalize_queue.pop(0)
            method = self.program.lookup_method(obj.class_name, "finalize")
            if method is None or method.is_native:
                continue
            try:
                self.call_method(method, obj, [])
            except MiniJavaException:
                self._finalizer_errors += 1  # Java swallows these too
            ran += 1
            self.heap.stats.finalizers_run += 1
        return ran

    def _safepoint(self) -> None:
        """Service the heap's safepoint flag at an instruction boundary:
        a due deep-GC sample first (unless one is being taken), then a
        due minor collection. Both engines call this only when
        ``heap.gc_pending`` is set."""
        heap = self.heap
        heap.gc_pending = False
        profiler = self.profiler
        if (
            profiler is not None
            and not self._sampling
            and heap.clock >= profiler.next_sample_at
        ):
            self._sampling = True
            # A minor collection due now is serviced at the first
            # boundary inside the sample's finalizers, if any run.
            heap.gc_pending = heap.minor_due
            try:
                profiler.take_sample(self)
            finally:
                self._sampling = False
                # Finalizers may have moved the clock past the new
                # threshold while no sample could be taken.
                if heap.clock >= profiler.next_sample_at:
                    heap.gc_pending = True
        if heap.minor_due:
            heap.minor_due = False
            self.collector.collect(self.iter_roots())

    def deep_gc(self) -> None:
        """The paper's deep GC: GC, run all finalizers, GC (§2.1.1)."""
        self.heap.stats.deep_gc_runs += 1
        telemetry = self.telemetry
        if telemetry is None:
            self.full_gc()
            if self.run_finalizers():
                self.full_gc()
            return
        with telemetry.span("gc.deep", category="gc"):
            self.full_gc()
            if self.run_finalizers():
                self.full_gc()
        telemetry.record_deep_gc()

    @property
    def finalizer_errors(self) -> int:
        """Finalizer-thrown (and swallowed) exceptions so far."""
        return self._finalizer_errors

    # ------------------------------------------------------------------
    # program / method entry
    # ------------------------------------------------------------------

    def run(self, args: Optional[List[str]] = None) -> ProgramResult:
        """Run <clinit> of every class, then main(String[]); finish the
        profile (final deep GC + survivor logging) if one is attached."""
        main_class = self.program.main_class
        if main_class is None:
            raise VMError("program has no main class")
        for name in self.program.clinit_order:
            clinit = self.program.classes[name].clinit
            if clinit is not None:
                self.call_method(clinit, None, [])
        arg_objs = []
        for text in args or []:
            s = self.new_string(text)
            s.excluded = True
            chars = s.fields.get("chars")
            if chars is not None:
                chars.excluded = True
            arg_objs.append(s)
        self.heap.temp_roots.extend(arg_objs)
        try:
            arr = self.heap.new_array("ref", "String", len(arg_objs))
        finally:
            del self.heap.temp_roots[len(self.heap.temp_roots) - len(arg_objs):]
        arr.excluded = True
        arr.data[:] = arg_objs
        main = self.program.lookup_method(main_class, "main")
        self.call_method(main, None, [arr])
        if self.profiler is not None:
            self.profiler.on_program_end(self)
        result = ProgramResult(
            self.stdout,
            self.instr_count,
            self.heap.stats,
            self.heap.clock,
            finalizer_errors=self._finalizer_errors,
        )
        if self.telemetry is not None:
            self.telemetry.record_run(self, result)
        return result

    def call_method(self, method: CompiledMethod, receiver, args: List[object]):
        """Invoke a method from the host (or re-entrantly, e.g. for
        finalizers and toString); returns its mini-Java return value."""
        if method.is_native:
            return self._call_native(method, receiver, args)
        floor = len(self.frames)
        locals_ = make_locals(method, args, receiver)
        self.frames.append(Frame(method, locals_))
        self._return_value = None
        try:
            self._run_to(floor)
        except BaseException:
            del self.frames[floor:]
            raise
        return self._return_value

    def call_static(self, class_name: str, method_name: str, args: Optional[List[object]] = None):
        method = self.program.lookup_method(class_name, method_name)
        if method is None:
            raise VMError(f"no method {class_name}.{method_name}")
        return self.call_method(method, None, list(args or []))

    # ------------------------------------------------------------------
    # string helpers
    # ------------------------------------------------------------------

    def new_string(self, text: str, excluded: bool = False) -> Instance:
        """Allocate a String (and its backing char[]) holding ``text``."""
        heap = self.heap
        arr = heap.new_array("char", "char", len(text))
        arr.data[:] = [ord(c) for c in text]
        if excluded:
            arr.excluded = True
        heap.temp_roots.append(arr)
        try:
            s = heap.new_instance(self.program.classes["String"])
        finally:
            heap.temp_roots.pop()
        if excluded:
            s.excluded = True
        s.fields["chars"] = arr
        s.fields["count"] = len(text)
        return s

    def string_value(self, obj: Optional[Instance], use: bool = True) -> str:
        """Extract the Python string from a String instance (a native
        handle dereference: fires use events on the String and chars)."""
        if obj is None:
            raise MJThrow(self.make_throwable("NullPointerException", "null String"))
        if use:
            self.heap.note_use(obj)
        chars = obj.fields.get("chars")
        if chars is None:
            return ""
        if use:
            self.heap.note_use(chars)
        return "".join(map(chr, chars.data))

    def stringify(self, value) -> Instance:
        """Convert any mini-Java value to a String instance (TOSTR)."""
        if isinstance(value, Instance) and value.class_name == "String":
            return value
        if value is None:
            return self.new_string("null")
        if isinstance(value, bool):
            return self.new_string("true" if value else "false")
        if isinstance(value, int):
            return self.new_string(str(value))
        if isinstance(value, Instance):
            method = self.program.lookup_method(value.class_name, "toString")
            if method is not None and not method.is_native:
                result = self.call_method(method, value, [])
                if isinstance(result, Instance) and result.class_name == "String":
                    return result
                return self.new_string("null")
            return self.new_string(f"{value.class_name}@{value.handle}")
        if isinstance(value, ArrayObject):
            return self.new_string(f"{value.type_name()}@{value.handle}")
        raise VMError(f"cannot stringify {value!r}")

    # ------------------------------------------------------------------
    # throwables
    # ------------------------------------------------------------------

    def make_throwable(self, class_name: str, message: str = "") -> Instance:
        """Allocate a VM-raised throwable (NPE, OOM, ...) directly."""
        cls = self.program.classes.get(class_name)
        if cls is None:
            raise VMError(f"missing library exception class {class_name}")
        if class_name not in self._vm_sites:
            self._vm_sites[class_name] = self.program.add_site(
                "<vm>", "throw", 0, "new", class_name, True
            )
        self.alloc_site = self._vm_sites[class_name]
        obj = self.heap.new_instance(cls)
        if message:
            self.heap.temp_roots.append(obj)
            try:
                obj.fields["message"] = self.new_string(message)
            finally:
                self.heap.temp_roots.pop()
        return obj

    def throw(self, class_name: str, message: str = ""):
        raise MJThrow(self.make_throwable(class_name, message))

    # ------------------------------------------------------------------
    # natives
    # ------------------------------------------------------------------

    def _call_native(self, method: CompiledMethod, receiver, args: List[object]):
        fn = self.natives.get((method.class_name, method.name))
        if fn is None:
            raise VMError(f"unbound native method {method.qualified_name}")
        # The receiver and args were popped off the operand stack, so a
        # GC triggered by an allocation inside the native would not see
        # them as roots; pin them for the duration of the call.
        temp = self.heap.temp_roots
        pinned = [v for v in [receiver] + args if isinstance(v, HeapObject)]
        temp.extend(pinned)
        try:
            return fn(self, receiver, args)
        finally:
            del temp[len(temp) - len(pinned):]

    # ------------------------------------------------------------------
    # type tests
    # ------------------------------------------------------------------

    def value_conforms(self, obj, type_repr_: str) -> bool:
        if obj is None:
            return True
        if type_repr_ == "Object":
            return True
        if type_repr_.endswith("[]"):
            if not isinstance(obj, ArrayObject):
                return False
            want = type_repr_[:-2]
            have = obj.elem_repr
            if want == have:
                return True
            # covariant reference arrays: Bar[] conforms to Foo[]
            if (
                not want.endswith("[]")
                and not have.endswith("[]")
                and want in self.program.classes
                and have in self.program.classes
            ):
                return self.program.is_subclass(have, want)
            return False
        if isinstance(obj, Instance):
            return self.program.is_subclass(obj.class_name, type_repr_)
        return False

    # ------------------------------------------------------------------
    # the big loop
    # ------------------------------------------------------------------

    def _run_to(self, floor: int) -> None:
        """Execute until the frame stack returns to ``floor`` frames."""
        frames = self.frames
        heap = self.heap
        program = self.program
        while len(frames) > floor:
            if heap.gc_pending:
                self._safepoint()
            frame = frames[-1]
            instr = frame.method.code[frame.pc]
            frame.pc += 1
            self.instr_count += 1
            op = instr.op
            stack = frame.stack
            try:
                if op == Op.LOAD:
                    stack.append(frame.locals[instr.args[0]])
                elif op == Op.STORE:
                    frame.locals[instr.args[0]] = stack.pop()
                elif op == Op.CONST:
                    stack.append(instr.args[0])
                elif op == Op.CONST_NULL:
                    stack.append(None)
                elif op == Op.GETFIELD:
                    obj = stack.pop()
                    if obj is None:
                        self.throw("NullPointerException", f"getfield {instr.args[0]}")
                    heap.note_use(obj)
                    stack.append(obj.fields[instr.args[0]])
                elif op == Op.PUTFIELD:
                    value = stack.pop()
                    obj = stack.pop()
                    if obj is None:
                        self.throw("NullPointerException", f"putfield {instr.args[0]}")
                    heap.note_use(obj)
                    obj.fields[instr.args[0]] = value
                    if heap.barrier is not None:
                        heap.barrier(obj, value)
                elif op == Op.GETSTATIC:
                    cls_name, field = instr.args
                    stack.append(self.statics[cls_name][field])
                elif op == Op.PUTSTATIC:
                    cls_name, field = instr.args
                    self.statics[cls_name][field] = stack.pop()
                elif op == Op.ALOAD:
                    index = stack.pop()
                    arr = stack.pop()
                    if arr is None:
                        self.throw("NullPointerException", "array load")
                    heap.note_use(arr)
                    if index < 0 or index >= len(arr.data):
                        self.throw(
                            "IndexOutOfBoundsException", f"{index} of {len(arr.data)}"
                        )
                    stack.append(arr.data[index])
                elif op == Op.ASTORE:
                    value = stack.pop()
                    index = stack.pop()
                    arr = stack.pop()
                    if arr is None:
                        self.throw("NullPointerException", "array store")
                    heap.note_use(arr)
                    if index < 0 or index >= len(arr.data):
                        self.throw(
                            "IndexOutOfBoundsException", f"{index} of {len(arr.data)}"
                        )
                    arr.data[index] = value
                    if heap.barrier is not None:
                        heap.barrier(arr, value)
                elif op == Op.ARRAYLEN:
                    arr = stack.pop()
                    if arr is None:
                        self.throw("NullPointerException", "array length")
                    heap.note_use(arr)
                    stack.append(len(arr.data))
                elif op == Op.INVOKEV:
                    name, argc = instr.args
                    args = stack[len(stack) - argc:]
                    del stack[len(stack) - argc:]
                    recv = stack.pop()
                    if recv is None:
                        self.throw("NullPointerException", f"invoke {name}")
                    heap.note_use(recv)
                    cls_name = (
                        recv.class_name if isinstance(recv, Instance) else "Object"
                    )
                    method = program.lookup_method(cls_name, name)
                    if method is None:
                        raise VMError(f"no method {cls_name}.{name}")
                    if method.is_native:
                        result = self._call_native(method, recv, args)
                        if method.return_descriptor != "void":
                            stack.append(result)
                    else:
                        frames.append(Frame(method, make_locals(method, args, recv)))
                elif op == Op.INVOKESTATIC:
                    cls_name, name, argc = instr.args
                    args = stack[len(stack) - argc:]
                    del stack[len(stack) - argc:]
                    method = program.lookup_method(cls_name, name)
                    if method is None:
                        raise VMError(f"no method {cls_name}.{name}")
                    if method.is_native:
                        result = self._call_native(method, None, args)
                        if method.return_descriptor != "void":
                            stack.append(result)
                    else:
                        frames.append(Frame(method, make_locals(method, args, None)))
                elif op == Op.INVOKESUPER:
                    start_cls, name, argc = instr.args
                    args = stack[len(stack) - argc:]
                    del stack[len(stack) - argc:]
                    recv = stack.pop()
                    heap.note_use(recv)
                    method = program.lookup_method(start_cls, name)
                    if method is None:
                        raise VMError(f"no method {start_cls}.{name}")
                    if method.is_native:
                        result = self._call_native(method, recv, args)
                        if method.return_descriptor != "void":
                            stack.append(result)
                    else:
                        frames.append(Frame(method, make_locals(method, args, recv)))
                elif op == Op.NEWINIT:
                    cls_name, argc = instr.args
                    args = stack[len(stack) - argc:]
                    del stack[len(stack) - argc:]
                    cls = program.classes[cls_name]
                    self.alloc_site = instr.site
                    obj = heap.new_instance(cls)
                    stack.append(obj)  # rooted while the ctor runs
                    ctor = cls.ctor
                    frames.append(Frame(ctor, make_locals(ctor, args, obj)))
                elif op == Op.SUPERINIT:
                    cls_name, argc = instr.args
                    args = stack[len(stack) - argc:]
                    del stack[len(stack) - argc:]
                    this = frame.locals[0]
                    ctor = program.classes[cls_name].ctor
                    frames.append(Frame(ctor, make_locals(ctor, args, this)))
                elif op == Op.NEWARRAY:
                    elem_desc, elem_repr = instr.args
                    length = stack.pop()
                    if length < 0:
                        self.throw("IndexOutOfBoundsException", f"array size {length}")
                    self.alloc_site = instr.site
                    stack.append(heap.new_array(elem_desc, elem_repr, length))
                elif op == Op.RET:
                    frames.pop()
                    if len(frames) == floor:
                        self._return_value = None
                elif op == Op.RETV:
                    value = stack.pop()
                    frames.pop()
                    if len(frames) == floor:
                        self._return_value = value
                    else:
                        frames[-1].stack.append(value)
                elif op == Op.JUMP:
                    frame.pc = instr.args[0]
                elif op == Op.JIF:
                    if not stack.pop():
                        frame.pc = instr.args[0]
                elif op == Op.JIT:
                    if stack.pop():
                        frame.pc = instr.args[0]
                elif op == Op.ADD:
                    b = stack.pop()
                    stack[-1] = stack[-1] + b
                elif op == Op.SUB:
                    b = stack.pop()
                    stack[-1] = stack[-1] - b
                elif op == Op.MUL:
                    b = stack.pop()
                    stack[-1] = stack[-1] * b
                elif op == Op.DIV:
                    b = stack.pop()
                    a = stack.pop()
                    if b == 0:
                        self.throw("ArithmeticException", "/ by zero")
                    q = abs(a) // abs(b)
                    stack.append(q if (a >= 0) == (b >= 0) else -q)
                elif op == Op.MOD:
                    b = stack.pop()
                    a = stack.pop()
                    if b == 0:
                        self.throw("ArithmeticException", "% by zero")
                    q = abs(a) // abs(b)
                    q = q if (a >= 0) == (b >= 0) else -q
                    stack.append(a - q * b)
                elif op == Op.NEG:
                    stack[-1] = -stack[-1]
                elif op == Op.EQ:
                    b = stack.pop()
                    stack[-1] = stack[-1] == b
                elif op == Op.NE:
                    b = stack.pop()
                    stack[-1] = stack[-1] != b
                elif op == Op.LT:
                    b = stack.pop()
                    stack[-1] = stack[-1] < b
                elif op == Op.LE:
                    b = stack.pop()
                    stack[-1] = stack[-1] <= b
                elif op == Op.GT:
                    b = stack.pop()
                    stack[-1] = stack[-1] > b
                elif op == Op.GE:
                    b = stack.pop()
                    stack[-1] = stack[-1] >= b
                elif op == Op.REFEQ:
                    b = stack.pop()
                    stack[-1] = stack[-1] is b
                elif op == Op.REFNE:
                    b = stack.pop()
                    stack[-1] = stack[-1] is not b
                elif op == Op.NOT:
                    stack[-1] = not stack[-1]
                elif op == Op.CAST_CHAR:
                    stack[-1] = stack[-1] & 0xFFFF
                elif op == Op.POP:
                    stack.pop()
                elif op == Op.DUP:
                    stack.append(stack[-1])
                elif op == Op.CONST_STRING:
                    text = instr.args[0]
                    interned = heap.interned.get(text)
                    if interned is None:
                        self.alloc_site = instr.site
                        interned = self.new_string(text, excluded=True)
                        heap.interned[text] = interned
                    stack.append(interned)
                elif op == Op.TOSTR:
                    self.alloc_site = instr.site
                    value = stack.pop()
                    if instr.args[0] == "char":
                        stack.append(self.new_string(chr(value)))
                    else:
                        stack.append(self.stringify(value))
                elif op == Op.CONCAT:
                    b = stack.pop()
                    a = stack.pop()
                    text = self.string_value(a) + self.string_value(b)
                    self.alloc_site = instr.site
                    stack.append(self.new_string(text))
                elif op == Op.CHECKCAST:
                    obj = stack[-1]
                    if obj is not None and not self.value_conforms(obj, instr.args[0]):
                        self.throw(
                            "ClassCastException",
                            f"{obj.type_name()} to {instr.args[0]}",
                        )
                elif op == Op.INSTANCEOF:
                    obj = stack.pop()
                    if obj is None:
                        stack.append(False)
                    elif isinstance(obj, ArrayObject):
                        stack.append(instr.args[0] == "Object")
                    else:
                        stack.append(
                            program.is_subclass(obj.class_name, instr.args[0])
                        )
                elif op == Op.MONENTER:
                    obj = stack.pop()
                    if obj is None:
                        self.throw("NullPointerException", "monitorenter")
                    heap.note_use(obj)
                    obj.monitor_depth += 1
                elif op == Op.MONEXIT:
                    obj = stack.pop()
                    if obj is None:
                        self.throw("NullPointerException", "monitorexit")
                    heap.note_use(obj)
                    obj.monitor_depth -= 1
                elif op == Op.THROW:
                    obj = stack.pop()
                    if obj is None:
                        self.throw("NullPointerException", "throw null")
                    raise MJThrow(obj)
                else:
                    raise VMError(f"unknown opcode {op}")
            except MJThrow as signal:
                self._unwind(signal.obj, floor)
            except OutOfMemory:
                oom = self.make_throwable("OutOfMemoryError", "heap exhausted")
                self._unwind(oom, floor)

    # ------------------------------------------------------------------
    # unwinding
    # ------------------------------------------------------------------

    def _unwind(self, obj: Instance, floor: int) -> None:
        frames = self.frames
        heap = self.heap
        while len(frames) > floor:
            frame = frames[-1]
            pc = frame.pc - 1  # pc of the faulting instruction
            for entry in frame.method.exception_table:
                if not entry.covers(pc):
                    continue
                if entry.kind == "monitor":
                    monitor = frame.locals[entry.monitor_slot]
                    if isinstance(monitor, (Instance, ArrayObject)):
                        heap.note_use(monitor)
                        monitor.monitor_depth -= 1
                    continue
                if self.program.is_subclass(obj.class_name, entry.exc_class):
                    frame.stack.clear()
                    frame.locals[entry.var_slot] = obj
                    frame.pc = entry.handler
                    return
            frames.pop()
        message = ""
        msg_obj = obj.fields.get("message")
        if isinstance(msg_obj, Instance):
            message = self.string_value(msg_obj, use=False)
        raise MiniJavaException(obj.class_name, message)
