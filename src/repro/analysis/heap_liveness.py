"""Interprocedural access-graph heap liveness analysis.

DRAG001–005 stop at locals and whole arrays: a reference that stays
*live* (a container keeps it) but whose contents are never consulted
again — the paper's §3.4 "pattern 4" — is invisible to them. This
module proves deadness *through* the heap:

1. A whole-program **abstract interpretation** over the compiled
   bytecode assigns every value an atom set — allocation sites
   ``("site", id)``, classes ``("cls", name)``, heap-token provenance
   ``("fld", token)`` / ``("reg", region)`` — and iterates per-method
   abstract stacks plus global field contents / parameter / return
   summaries to a fixpoint. Virtual dispatch is **type-refined**: a
   receiver's atoms resolve calls to the classes actually flowing
   there, falling back to the CHA family of the program's
   :class:`~repro.analysis.callgraph.CallGraph` (name and arity) only
   when a receiver is statically unknown — that fallback and the
   recursion-tolerant monotone summaries are the sound widening at
   megamorphic/recursive sites. Exact calls (constructors, static and
   super invokes) and method keys resolve through the same call graph.
2. **Tier A (DRAG006)**: a heap token (field ``f``, static ``C.f`` or
   array-element region ``t[]``) is *observably live* iff a value read
   out of it reaches a real use (receiver dereference, identity
   comparison, instanceof/cast, native output, …), directly or through
   copies into other live tokens. Tokens written but never observably
   live are dead heap paths: their stores can be nulled.
3. **Tier B (DRAG007)**: a backward may-analysis per method (gen =
   direct token reads plus callee ``may_read`` summaries, solved
   callee-first) joined with a ``future-after-return`` fixpoint
   (caller-first) over the refined call graph yields, per program
   point, which tokens still have a future use; both fixpoints run on
   :func:`~repro.analysis.callgraph.call_graph_fixpoint`. A container
   field whose access paths all die before the container does gets an
   ``owner.field = null`` insertion point after its last use, provided
   the store that fills the owner local dominates it
   (:func:`~repro.snapshot.dominators.immediate_dominators`).

Soundness escape hatch: anything the interpreter cannot summarize — an
unknown native, an array load from a statically unknown reference, an
ill-formed abstract stack — degrades the whole analysis to TOP: no
verdict is emitted and a ``lint --explain``-visible note says why.
Pinning structure is reported as bounded
:class:`~repro.analysis.access_graph.AccessGraph` paths ("who keeps
dragged objects alive"), which the planner and advisor surface.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.analysis.access_graph import AccessGraph
from repro.analysis.callgraph import CallGraph, MethodKey, call_graph_fixpoint
from repro.analysis.dataflow import solve
from repro.bytecode.opcodes import Op
from repro.bytecode.program import CompiledMethod, CompiledProgram
from repro.snapshot.dominators import dominates, immediate_dominators

EMPTY: FrozenSet = frozenset()

UNKNOWN = ("unknown",)
EXTERN = ("extern",)  # the VM-made String[] argv and its strings
OPAQUE = ("opaque",)  # native-allocated primitive arrays (toCharArray)

#: Token wildcard: "every token" (TOP for future/read sets).
ANY = "*"

#: Refined call sites with more targets than this get a widening note.
MEGAMORPHIC_LIMIT = 6

_ARITH2 = {Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD,
           Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE}
_ARITH1 = {Op.NEG, Op.NOT, Op.CAST_CHAR}

# Whitelisted native semantics: (class, method) -> result kind.
# "prim" pushes nothing heap-ish, "string"/"chararray" push references,
# "void" pushes nothing. Every whitelisted native marks its reference
# arguments as really used; String-class natives additionally read the
# String internals (chars/count and the chars element region).
_NATIVES = {
    ("Object", "hashCode"): "prim",
    ("Object", "equals"): "prim",
    ("Object", "toString"): "string",
    ("String", "length"): "prim",
    ("String", "charAt"): "prim",
    ("String", "equals"): "prim",
    ("String", "compareTo"): "prim",
    ("String", "indexOf"): "prim",
    ("String", "hashCode"): "prim",
    ("String", "substring"): "string",
    ("String", "concat"): "string",
    ("String", "valueOf"): "string",
    ("String", "toCharArray"): "chararray",
    ("System", "println"): "void",
    ("System", "printInt"): "prim",
    ("System", "arraycopy"): "void",
    ("System", "allocatedBytes"): "prim",
    ("System", "gc"): "void",
    ("Math", "isqrt"): "prim",
}

#: Natives whose array-typed arguments have their element regions read.
_ARRAY_READING_NATIVES = {("String", "valueOf")}


class HeapWrite(NamedTuple):
    """One store into a heap token, with the abstract value stored."""

    token: str
    class_name: str
    method_name: str
    line: int
    value_atoms: FrozenSet


class DeadHeapStore(NamedTuple):
    """A DRAG006 verdict: one store site filling a dead heap path."""

    token: str
    class_name: str
    method_name: str
    line: int
    value_classes: Tuple[str, ...]
    pinned_labels: Tuple[str, ...]
    explain: str


class DroppableEntry(NamedTuple):
    """A DRAG007 verdict: ``var.field = null`` is safe after ``lines``."""

    class_name: str  # method owning the insertion point
    method_name: str
    var_name: str
    owner_class: str  # class of the local (declares/owns ``field``)
    field: str
    lines: Tuple[int, ...]
    last_use: str
    pinned_labels: Tuple[str, ...]
    explain: str


class _MethodInfo:
    """Per-pc facts of one interpreted method (final fixpoint sweep)."""

    __slots__ = ("reads", "targets", "lines")

    def __init__(self, n: int) -> None:
        self.reads: List[FrozenSet[str]] = [EMPTY] * n
        self.targets: List[Tuple[MethodKey, ...]] = [()] * n
        self.lines: List[int] = [0] * n


class _Degraded(Exception):
    """Raised when the analysis must give up (soundness escape hatch)."""


class HeapLivenessAnalysis:
    """Whole-program heap liveness over a compiled program.

    ``cfg_for`` is a callable mapping :class:`CompiledMethod` to its
    CFG, and ``callgraph`` the program's CHA :class:`CallGraph`, which
    resolves keys, exact calls and the widened virtual families (the
    lint :class:`AnalysisContext` provides both, built once).
    """

    def __init__(self, compiled: CompiledProgram, cfg_for, callgraph: CallGraph) -> None:
        self.compiled = compiled
        self._cfg_for = cfg_for
        self.callgraph = callgraph
        self.notes: List[str] = []
        self._note_set: Set[str] = set()
        self.degraded = False

        # -- phase-1 monotone global state --------------------------------
        self._field_contents: Dict[str, FrozenSet] = {}
        self._region_contents: Dict[tuple, FrozenSet] = {}
        self._param_vals: Dict[Tuple[MethodKey, int], FrozenSet] = {}
        self._ret_vals: Dict[MethodKey, FrozenSet] = {}
        self._uf: Dict[tuple, tuple] = {}
        self._methods: Dict[MethodKey, CompiledMethod] = {}
        self._order: List[MethodKey] = []
        self._changed = False

        # -- recorded events (final sweep) --------------------------------
        self.method_info: Dict[MethodKey, _MethodInfo] = {}
        self.writes: Dict[str, List[HeapWrite]] = {}
        self.read_tokens: Set[str] = set()
        self.reads_at: Dict[str, List[Tuple[MethodKey, int]]] = {}
        self._copy_edges: Dict[str, Set[str]] = {}
        self._used_fields: Set[str] = set()
        self._used_regions: Set[tuple] = set()
        self.live_tokens: Set[str] = set()
        self.contents_of: Dict[str, FrozenSet] = {}
        self._region_names: Dict[tuple, str] = {}
        self.may_read: Dict[MethodKey, FrozenSet[str]] = {}
        self._future_after: Dict[MethodKey, FrozenSet[str]] = {}
        self._local_flows: Dict[MethodKey, Tuple[List[FrozenSet], List[FrozenSet]]] = {}

        try:
            self._run()
        except _Degraded:
            self.degraded = True

    # -- notes / degradation ------------------------------------------------

    def _note(self, text: str) -> None:
        if text not in self._note_set:
            self._note_set.add(text)
            self.notes.append(text)

    def _degrade(self, reason: str) -> None:
        self._note(f"degraded to TOP: {reason}; no heap-deadness verdicts emitted")
        raise _Degraded(reason)

    # -- region union-find --------------------------------------------------

    def _find(self, key: tuple) -> tuple:
        parent = self._uf.setdefault(key, key)
        if parent == key:
            return key
        root = self._find(parent)
        self._uf[key] = root
        return root

    def _union(self, a: tuple, b: tuple) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        self._uf[rb] = ra
        self._changed = True
        merged = self._region_contents.pop(rb, EMPTY)
        if merged:
            self._region_contents[ra] = self._region_contents.get(ra, EMPTY) | merged

    def _region_name(self, key: tuple) -> Optional[str]:
        rep = self._find(key)
        name = self._region_names.get(rep)
        if name is None and rep[0] == "tok":
            # Key first materialized in the recording pass (e.g. the
            # String internals token): name it directly.
            name = rep[1] + "[]"
            self._region_names[rep] = name
        return name

    # -- atom helpers -------------------------------------------------------

    def _grow(self, mapping, key, atoms: FrozenSet) -> None:
        if not atoms:
            return
        old = mapping.get(key, EMPTY)
        new = old | atoms
        if new != old:
            mapping[key] = new
            self._changed = True

    def _is_array_site(self, sid: int) -> bool:
        created = self.compiled.site(sid).created
        return created not in self.compiled.classes

    def _site_class(self, sid: int) -> str:
        created = self.compiled.site(sid).created
        return created if created in self.compiled.classes else "Object"

    def _region_keys_of_value(self, atoms: FrozenSet) -> List[tuple]:
        """UF keys of the element regions of the arrays ``atoms`` may be."""
        keys = []
        for atom in atoms:
            kind = atom[0]
            if kind == "site" and self._is_array_site(atom[1]):
                keys.append(("site", atom[1]))
            elif kind == "fld":
                keys.append(("tok", atom[1]))
            elif kind == "reg":
                keys.append(atom[1])
        return keys

    # -- method resolution --------------------------------------------------

    def _exact_targets(self, instr) -> List[CompiledMethod]:
        """The method a static or super invoke calls, if it resolves."""
        targets = []
        for key in self.callgraph.targets(instr):
            targets.append(self.callgraph.method(key))
        return targets

    def _reach(self, method: CompiledMethod) -> MethodKey:
        key = (method.class_name, method.name)
        if key not in self._methods:
            self._methods[key] = method
            self._order.append(key)
            self._changed = True
        return key

    def _dispatch(
        self, name: str, argc: int, receiver: FrozenSet
    ) -> Tuple[List[CompiledMethod], bool]:
        """Type-refined dispatch; returns (targets, used_cha_widening)."""
        classes: Set[str] = set()
        widen = False
        for atom in receiver:
            kind = atom[0]
            if kind == "site":
                classes.add(self._site_class(atom[1]))
            elif kind == "cls":
                classes.add(atom[1])
            elif kind in ("unknown", "extern", "opaque"):
                widen = True
        if widen or not classes:
            # Receiver statically unknown (or only provenance atoms):
            # widen to the full CHA family — the sound TOP of dispatch.
            widen = True
            keys = self.callgraph.family(name, argc)
        else:
            keys = []
            for cls_name in sorted(classes):
                m = self.compiled.lookup_method(cls_name, name)
                if m is not None and not m.is_static and m.param_count == argc:
                    keys.append((m.class_name, m.name))
            keys = tuple(sorted(set(keys)))
        targets = []
        for key in keys:
            m = self.callgraph.method(key)
            if m is not None:
                targets.append(m)
        if len(targets) > MEGAMORPHIC_LIMIT:
            self._note(
                f"megamorphic call {name}/{argc}: {len(targets)} targets; "
                "widened to the CHA family"
            )
        return targets, widen

    # -- the driver ---------------------------------------------------------

    def _run(self) -> None:
        program = self.compiled
        main_cls = program.main_class
        roots: List[MethodKey] = []
        if main_cls:
            main = self.callgraph.method((main_cls, "main"))
            if main is not None:
                key = self._reach(main)
                # argv: an extern array whose elements are Strings.
                self._grow(self._param_vals, (key, 0), frozenset([EXTERN]))
                roots.append(key)
        for cls_name in program.clinit_order:
            cls = program.classes.get(cls_name)
            if cls is not None and cls.clinit is not None:
                roots.append(self._reach(cls.clinit))

        # Phase 1: iterate all reachable methods until the global state
        # (contents, summaries, regions, reachability) stops changing.
        for _ in range(200):
            self._changed = False
            index = 0
            while index < len(self._order):
                key = self._order[index]
                index += 1
                self._run_method(key, record=False)
            if not self._changed:
                break
        else:  # pragma: no cover - termination guard
            self._degrade("abstract interpretation did not converge")

        # Phase 2: the state is a fixpoint; one recording sweep collects
        # per-pc reads/targets, write events, copies, and real uses with
        # final (stable) region names.
        self._name_regions()
        for key in self._order:
            self._run_method(key, record=True)
        for rep in self._read_region_set:
            name = self._region_name(rep)
            if name is not None:
                self.read_tokens.add(name)
        self.live_tokens = self._solve_live()
        self.contents_of = dict(self._field_contents)
        for rep, atoms in self._region_contents.items():
            name = self._region_names.get(self._find(rep))
            if name is not None:
                self.contents_of[name] = self.contents_of.get(name, EMPTY) | atoms
        self._solve_summaries()

    _read_region_set: Set[tuple]

    def _name_regions(self) -> None:
        groups: Dict[tuple, List[tuple]] = {}
        for key in list(self._uf):
            groups.setdefault(self._find(key), []).append(key)
        names: Dict[tuple, str] = {}
        for rep, members in groups.items():
            toks = sorted(k[1] for k in members if k[0] == "tok")
            if toks:
                names[rep] = toks[0] + "[]"
                continue
            sids = sorted(k[1] for k in members if k[0] == "site")
            if sids:
                names[rep] = "@" + self.compiled.site(sids[0]).label + "[]"
            elif any(k == ("extern",) for k in members):
                names[rep] = "<extern>[]"
            else:
                names[rep] = "<opaque>[]"
        self._region_names = names
        self._read_region_set = set()

    # -- per-method interpretation ------------------------------------------

    def _run_method(self, mkey: MethodKey, record: bool) -> None:
        method = self._methods[mkey]
        if method.is_native or not method.code:
            return
        cfg = self._cfg_for(method)
        code = method.code
        nparams = method.param_count + (0 if method.is_static else 1)
        entry_locals = tuple(
            self._param_vals.get((mkey, slot), EMPTY) if slot < nparams else EMPTY
            for slot in range(method.nlocals)
        )
        states: Dict[int, Tuple[tuple, tuple]] = {0: ((), entry_locals)}
        work = deque([0])
        queued = {0}
        while work:
            pc = work.popleft()
            queued.discard(pc)
            stack, locals_ = states[pc]
            post = self._transfer(mkey, method, pc, stack, locals_, record=False)
            if post is None:
                continue  # terminal instruction
            new_stack, new_locals = post
            for succ in cfg.succs[pc]:
                if succ in cfg.handler_entries:
                    slot = cfg.handler_entries[succ]
                    hloc = list(locals_)
                    if 0 <= slot < len(hloc):
                        hloc[slot] = hloc[slot] | frozenset([UNKNOWN])
                    target = ((), tuple(hloc))
                else:
                    target = (new_stack, new_locals)
                old = states.get(succ)
                if old is None:
                    states[succ] = target
                elif old != target:
                    if len(old[0]) != len(target[0]):
                        self._degrade(
                            f"inconsistent abstract stack depth at "
                            f"{method.qualified_name}:{code[succ].line}"
                        )
                    merged = (
                        tuple(a | b for a, b in zip(old[0], target[0])),
                        tuple(a | b for a, b in zip(old[1], target[1])),
                    )
                    if merged == old:
                        continue
                    states[succ] = merged
                else:
                    continue
                if succ not in queued:
                    queued.add(succ)
                    work.append(succ)
        if record:
            info = _MethodInfo(len(code))
            self._info = info
            for pc in sorted(states):
                stack, locals_ = states[pc]
                self._transfer(mkey, method, pc, stack, locals_, record=True)
                info.lines[pc] = code[pc].line
            self.method_info[mkey] = info
            self._info = None

    # -- recording helpers (active only in the final sweep) -----------------

    _info: Optional[_MethodInfo] = None

    def _mark_used(self, atoms: FrozenSet, record: bool) -> None:
        if not record:
            return
        for atom in atoms:
            if atom[0] == "fld":
                self._used_fields.add(atom[1])
            elif atom[0] == "reg":
                self._used_regions.add(self._find(atom[1]))

    def _record_read(self, mkey, token: str, line: int, pc: int) -> None:
        self.read_tokens.add(token)
        self.reads_at.setdefault(token, []).append((mkey, line))
        info = self._info
        if info is not None:
            info.reads[pc] = info.reads[pc] | frozenset([token])

    def _record_region_read(self, mkey, rep: tuple, line: int, pc: int) -> None:
        self._read_region_set.add(self._find(rep))
        name = self._region_name(rep)
        if name is not None:
            self._record_read(mkey, name, line, pc)

    def _record_write(self, token: str, mkey, line: int, atoms: FrozenSet) -> None:
        self.writes.setdefault(token, []).append(
            HeapWrite(token, mkey[0], mkey[1], line, atoms)
        )

    def _record_copies(self, value: FrozenSet, dst_token: str) -> None:
        for atom in value:
            if atom[0] == "fld":
                self._copy_edges.setdefault(atom[1], set()).add(dst_token)
            elif atom[0] == "reg":
                name = self._region_names.get(self._find(atom[1]))
                if name is not None:
                    self._copy_edges.setdefault(name, set()).add(dst_token)

    def _record_target(self, pc: int, targets: Sequence[CompiledMethod]) -> None:
        info = self._info
        if info is not None:
            keys = tuple(sorted({(m.class_name, m.name) for m in targets}))
            info.targets[pc] = info.targets[pc] + keys

    # -- the transfer function ----------------------------------------------

    def _transfer(self, mkey, method, pc, stack, locals_, record):
        """Abstract effect of ``code[pc]``; returns (stack, locals) for
        normal successors or None for terminal instructions."""
        instr = method.code[pc]
        op = instr.op
        line = instr.line
        S = list(stack)
        L = locals_

        def pop(k=1):
            if k == 0:
                return []
            if len(S) < k:
                self._degrade(
                    f"abstract stack underflow at {method.qualified_name}:{line}"
                )
            vals = S[-k:]
            del S[-k:]
            return vals

        if op == Op.CONST or op == Op.CONST_NULL:
            S.append(EMPTY)
        elif op == Op.CONST_STRING:
            S.append(frozenset([("site", instr.site)]))
        elif op == Op.LOAD:
            S.append(L[instr.args[0]])
        elif op == Op.STORE:
            (v,) = pop()
            slot = instr.args[0]
            if L[slot] != L[slot] | v:
                L = L[:slot] + (L[slot] | v,) + L[slot + 1:]
        elif op == Op.POP:
            pop()
        elif op == Op.DUP:
            if not S:
                self._degrade(f"DUP on empty stack at {method.qualified_name}:{line}")
            S.append(S[-1])
        elif op == Op.NEWINIT:
            cls_name, argc = instr.args
            args = pop(argc)
            this = frozenset([("site", instr.site)])
            ctor = self.callgraph.method((cls_name, "<init>"))
            if ctor is not None:
                self._call(ctor, this, args, pc, record)
            fin = self.compiled.lookup_method(cls_name, "finalize")
            if fin is not None and not fin.is_native and fin.param_count == 0:
                # Finalizers run from the collector: analysis roots.
                fk = self._reach(fin)
                self._grow(self._param_vals, (fk, 0), this)
            S.append(this)
        elif op == Op.SUPERINIT:
            cls_name, argc = instr.args
            args = pop(argc)
            ctor = self.callgraph.method((cls_name, "<init>"))
            if ctor is not None:
                self._call(ctor, L[0], args, pc, record)
        elif op == Op.NEWARRAY:
            pop()
            self._find(("site", instr.site))  # materialize the region
            S.append(frozenset([("site", instr.site)]))
        elif op == Op.GETFIELD:
            (obj,) = pop()
            self._mark_used(obj, record)
            token = instr.args[0]
            if record:
                self._record_read(mkey, token, line, pc)
            S.append(self._field_contents.get(token, EMPTY) | frozenset([("fld", token)]))
        elif op == Op.PUTFIELD:
            v, = pop()
            (obj,) = pop()
            self._mark_used(obj, record)
            token = instr.args[0]
            self._store_token(token, v, mkey, line, record)
        elif op == Op.GETSTATIC:
            cls_name, field = instr.args
            token = f"{cls_name}.{field}"
            if record:
                self._record_read(mkey, token, line, pc)
            S.append(self._field_contents.get(token, EMPTY) | frozenset([("fld", token)]))
        elif op == Op.PUTSTATIC:
            (v,) = pop()
            cls_name, field = instr.args
            self._store_token(f"{cls_name}.{field}", v, mkey, line, record)
        elif op == Op.ALOAD:
            _idx, = pop()
            (arr,) = pop()
            self._mark_used(arr, record)
            out = EMPTY
            for atom in arr:
                if atom[0] in ("unknown", "cls"):
                    self._degrade(
                        f"array load from statically unknown reference at "
                        f"{method.qualified_name}:{line}"
                    )
            for key in self._region_keys_of_value(arr):
                rep = self._find(key)
                if record:
                    self._record_region_read(mkey, rep, line, pc)
                out = out | self._region_contents.get(rep, EMPTY)
                out = out | frozenset([("reg", rep)])
            if EXTERN in arr:
                out = out | frozenset([("cls", "String")])
            S.append(out)
        elif op == Op.ASTORE:
            (v,) = pop()
            _idx, = pop()
            (arr,) = pop()
            self._mark_used(arr, record)
            keys = self._region_keys_of_value(arr)
            if (UNKNOWN in arr or EXTERN in arr) and v:
                # Write into an unlocalizable array: the value escapes.
                self._mark_used(v, record)
                self._note(
                    f"array store through statically unknown reference at "
                    f"{method.qualified_name}:{line}; stored value widened to live"
                )
            for key in keys:
                rep = self._find(key)
                self._grow(self._region_contents, rep, v)
                for vkey in self._region_keys_of_value(v):
                    self._union(rep, vkey)
                if record:
                    name = self._region_names.get(self._find(rep))
                    if name is not None:
                        self._record_write(name, mkey, line, v)
                        self._record_copies(v, name)
        elif op == Op.ARRAYLEN:
            (arr,) = pop()
            self._mark_used(arr, record)
            S.append(EMPTY)
        elif op == Op.CHECKCAST:
            # Peek: the cast observes the value's type (it can throw),
            # so the value counts as really used — but nulling a dead
            # store never *introduces* a throw, so pass-through atoms.
            if S:
                self._mark_used(S[-1], record)
        elif op == Op.INSTANCEOF:
            (obj,) = pop()
            self._mark_used(obj, record)
            S.append(EMPTY)
        elif op == Op.INVOKEV:
            name, argc = instr.args
            args = pop(argc)
            (receiver,) = pop()
            self._mark_used(receiver, record)
            targets, _ = self._dispatch(name, argc, receiver)
            pushed = self._invoke(mkey, method, pc, line, receiver, args,
                                  targets, name, argc, record)
            if pushed is not None:
                S.append(pushed)
        elif op == Op.INVOKESTATIC:
            cls_name, name, argc = instr.args
            args = pop(argc)
            if (cls_name, name) == ("System", "arraycopy"):
                self._arraycopy(args, record)
            else:
                targets = self._exact_targets(instr)
                if targets:
                    pushed = self._invoke(mkey, method, pc, line, None, args,
                                          targets, name, argc, record)
                    if pushed is not None:
                        S.append(pushed)
        elif op == Op.INVOKESUPER:
            cls_name, name, argc = instr.args
            args = pop(argc)
            receiver = L[0] if L else EMPTY
            targets = self._exact_targets(instr)
            if targets:
                pushed = self._invoke(mkey, method, pc, line, receiver, args,
                                      targets, name, argc, record)
                if pushed is not None:
                    S.append(pushed)
        elif op == Op.RET:
            return None
        elif op == Op.RETV:
            (v,) = pop()
            self._grow(self._ret_vals, mkey, v)
            return None
        elif op in _ARITH2:
            pop(2)
            S.append(EMPTY)
        elif op in _ARITH1:
            pop()
            S.append(EMPTY)
        elif op in (Op.REFEQ, Op.REFNE):
            a, b = pop(2)
            self._mark_used(a, record)
            self._mark_used(b, record)
            S.append(EMPTY)
        elif op == Op.TOSTR:
            (v,) = pop()
            out = frozenset([("site", instr.site)])
            if instr.args[0] == "ref":
                self._mark_used(v, record)
                targets, _ = self._dispatch("toString", 0, v)
                user = [t for t in targets if not t.is_native]
                if user:
                    ret = self._invoke(mkey, method, pc, line, v, (), user,
                                       "toString", 0, record)
                    if ret:
                        out = out | ret
            S.append(out)
        elif op == Op.CONCAT:
            a, b = pop(2)
            self._mark_used(a, record)
            self._mark_used(b, record)
            if record:
                self._read_string_internals(mkey, line, pc)
            S.append(frozenset([("site", instr.site)]))
        elif op == Op.JUMP:
            pass
        elif op in (Op.JIF, Op.JIT):
            pop()
        elif op == Op.THROW:
            (v,) = pop()
            self._mark_used(v, record)
            return (tuple(S), L)  # handler successors only
        elif op in (Op.MONENTER, Op.MONEXIT):
            (v,) = pop()
            self._mark_used(v, record)
        else:  # pragma: no cover - exhaustive over the ISA
            self._degrade(f"unmodeled opcode {op} at {method.qualified_name}:{line}")
        return (tuple(S), L)

    # -- calls ---------------------------------------------------------------

    def _store_token(self, token, value, mkey, line, record) -> None:
        self._grow(self._field_contents, token, value)
        for vkey in self._region_keys_of_value(value):
            self._union(("tok", token), vkey)
        if record:
            self._record_write(token, mkey, line, value)
            self._record_copies(value, token)

    def _call(self, target: CompiledMethod, receiver, args, pc, record) -> None:
        """Flow receiver/args into a non-native target's parameters."""
        tk = self._reach(target)
        base = 0
        if not target.is_static:
            if receiver is not None:
                self._grow(self._param_vals, (tk, 0), receiver)
            base = 1
        for i, atoms in enumerate(args):
            self._grow(self._param_vals, (tk, base + i), atoms)
        if record:
            self._record_target(pc, [target])

    def _invoke(self, mkey, method, pc, line, receiver, args, targets,
                name, argc, record) -> Optional[FrozenSet]:
        """Dispatch to ``targets``; returns pushed atoms or None (void)."""
        if not targets:
            # A call with no resolvable target cannot execute (receiver
            # is null on every path) — but the stack shape must still
            # follow the declared family.
            fam = self.callgraph.family(name, argc)
            if not fam:
                return EMPTY  # assume a value; merge degrades if wrong
            m = self.callgraph.method(fam[0])
            return EMPTY if (m and m.return_descriptor != "void") else None
        returns = {t.return_descriptor != "void" for t in targets}
        if len(returns) > 1:
            self._degrade(
                f"call family {name}/{argc} mixes void and value returns "
                f"at {method.qualified_name}:{line}"
            )
        out = EMPTY
        for target in targets:
            if target.is_native:
                pushed = self._native(mkey, line, pc, target, receiver, args, record)
                if pushed is not None:
                    out = out | pushed
            else:
                self._call(target, receiver, args, pc, record)
                out = out | self._ret_vals.get((target.class_name, target.name), EMPTY)
        return out if returns == {True} else None

    def _native(self, mkey, line, pc, target, receiver, args, record):
        key = (target.class_name, target.name)
        kind = _NATIVES.get(key)
        if kind is None:
            self._degrade(f"unmodeled native {target.qualified_name}")
        if receiver is not None:
            self._mark_used(receiver, record)
        for atoms in args:
            self._mark_used(atoms, record)
        if target.class_name in ("String", "Object") or key == ("System", "println"):
            if record:
                self._read_string_internals(mkey, line, pc)
        if key in _ARRAY_READING_NATIVES and record:
            for atoms in args:
                for rkey in self._region_keys_of_value(atoms):
                    self._record_region_read(mkey, self._find(rkey), line, pc)
        if kind == "string":
            return frozenset([("cls", "String")])
        if kind == "chararray":
            return frozenset([OPAQUE])
        if kind == "prim":
            return EMPTY
        return None  # void

    def _read_string_internals(self, mkey, line, pc) -> None:
        """String content observation: chars/count plus the chars region."""
        self._record_read(mkey, "chars", line, pc)
        self._record_read(mkey, "count", line, pc)
        rep = self._find(("tok", "chars"))
        self._record_region_read(mkey, rep, line, pc)

    def _arraycopy(self, args, record) -> None:
        if len(args) != 5:
            return
        src, _sp, dst, _dp, _n = args
        self._mark_used(src, record)
        self._mark_used(dst, record)
        src_keys = self._region_keys_of_value(src)
        dst_keys = self._region_keys_of_value(dst)
        # Element copy: merging the regions over-approximates "contents
        # of src flow into dst" (sound; ensureCapacity-style copies are
        # same-region anyway).
        for skey in src_keys:
            for dkey in dst_keys:
                self._union(skey, dkey)

    # -- Tier A: observable token liveness ------------------------------------

    #: Tokens the VM itself observes outside any modeled bytecode:
    #: uncaught-exception reporting reads Throwable.message, and the
    #: runtime prints String internals. Never declared dead.
    VM_OBSERVED_TOKENS = frozenset(["message", "chars", "count"])

    def _solve_live(self) -> Set[str]:
        live = set(self._used_fields) | set(self.VM_OBSERVED_TOKENS)
        for rep in self._used_regions:
            name = self._region_names.get(self._find(rep))
            if name is not None:
                live.add(name)
        changed = True
        while changed:
            changed = False
            for src, dsts in self._copy_edges.items():
                if src not in live and any(d in live for d in dsts):
                    live.add(src)
                    changed = True
        return live

    def dead_heap_stores(self) -> List[DeadHeapStore]:
        """DRAG006: stores into heap tokens no live path ever reads."""
        if self.degraded:
            return []
        out = []
        for token in sorted(self.writes):
            if token in self.live_tokens:
                continue
            events = [w for w in self.writes[token]
                      if any(a[0] in ("site", "cls") for a in w.value_atoms)]
            if not events:
                continue
            pinned = self.pinned_site_labels(token)
            paths = self.pinning_graph(token).paths(limit=3)
            for w in sorted(set(events), key=lambda w: (w.class_name, w.line)):
                classes = tuple(sorted({
                    self._site_class(a[1]) if a[0] == "site" else a[1]
                    for a in w.value_atoms if a[0] in ("site", "cls")
                }))
                explain = (
                    f"no observable read of heap path {token!r} anywhere in "
                    f"the refined call graph ({len(self.method_info)} methods "
                    "interpreted); the store only pins "
                    + (", ".join(pinned[:4]) if pinned else "its operand")
                    + (f"; pinning paths: {'; '.join(paths)}" if paths else "")
                )
                out.append(DeadHeapStore(
                    token, w.class_name, w.method_name, w.line, classes,
                    tuple(pinned), explain,
                ))
        return out

    # -- Tier B: future-use per program point --------------------------------

    def _gen_sets(self, mkey: MethodKey) -> List[FrozenSet[str]]:
        info = self.method_info[mkey]
        gens: List[FrozenSet[str]] = []
        for pc in range(len(info.reads)):
            gen = info.reads[pc]
            for tkey in info.targets[pc]:
                gen = gen | self.may_read[tkey]
            gens.append(gen)
        return gens

    def _solve_summaries(self) -> None:
        """``may_read`` per method, local backward flows, and the
        future-after-return fixpoint over the refined call graph."""
        if self.degraded:
            return
        callees: Dict[MethodKey, Tuple[MethodKey, ...]] = {}
        callers: Dict[MethodKey, List[Tuple[MethodKey, int]]] = {}
        for key in self._order:
            reads = EMPTY
            info = self.method_info.get(key)
            if info is not None:
                called: Dict[MethodKey, None] = {}
                for pc, targets in enumerate(info.targets):
                    reads = reads | info.reads[pc]
                    for tkey in targets:
                        called[tkey] = None
                        callers.setdefault(tkey, []).append((key, pc))
                callees[key] = tuple(called)
            self.may_read[key] = reads
        # may_read: monotone, bottom-up (recursion-safe on the finite
        # token lattice; a recursive cycle just iterates to its join).
        own = dict(self.may_read)

        def reads_through_calls(key: MethodKey) -> FrozenSet[str]:
            new = own[key]
            for tkey in callees[key]:
                new = new | self.may_read[tkey]
            return new

        call_graph_fixpoint(callees, callees, self.may_read, reads_through_calls,
                            bottom_up=True)
        # Local backward flows (gen = reads + callee summaries).
        for key in callees:
            gen_kill = [(gen, EMPTY) for gen in self._gen_sets(key)]
            self._local_flows[key] = solve(
                self._cfg_for(self._methods[key]), gen_kill.__getitem__, "backward"
            )
        # future-after-return: what still runs once a method returns,
        # top-down from each caller's flow after the call site.
        top = frozenset([ANY])
        future: Dict[MethodKey, FrozenSet[str]] = {}
        for key in self._order:
            if self._methods[key].name in ("<clinit>", "finalize"):
                future[key] = top  # runs before main / from the collector
            else:
                future[key] = EMPTY

        def future_after(key: MethodKey) -> FrozenSet[str]:
            new = future[key]
            for caller, pc in callers.get(key, ()):
                new = new | self._local_flows[caller][1][pc] | future[caller]
            return new

        self._future_after = call_graph_fixpoint(
            self._order, callees, future, future_after, bottom_up=False
        )

    def droppable_entries(self) -> List[DroppableEntry]:
        """DRAG007: ``var.field = null`` insertion points — container
        entries whose access paths die before the container does."""
        if self.degraded:
            return []
        out = []
        for mkey in self._order:
            method = self._methods[mkey]
            cls = self.compiled.classes.get(mkey[0])
            if cls is None or cls.is_library or method.is_native:
                continue
            if method.name in ("<init>", "<clinit>"):
                continue
            info = self.method_info.get(mkey)
            flows = self._local_flows.get(mkey)
            if info is None or flows is None:
                continue
            fut_ret = self._future_after.get(mkey, frozenset([ANY]))
            if ANY in fut_ret:
                continue
            code = method.code
            cfg = self._cfg_for(method)
            idom = immediate_dominators([list(succs) for succs in cfg.succs])
            nparams = method.param_count + (0 if method.is_static else 1)
            stores: Dict[int, List[int]] = {}
            for pc, instr in enumerate(code):
                if instr.op == Op.STORE and instr.args[0] >= nparams:
                    stores.setdefault(instr.args[0], []).append(pc)
            ins = flows[0]
            for slot, pcs in sorted(stores.items()):
                if len(pcs) != 1:
                    continue
                s = pcs[0]
                if s == 0 or code[s - 1].op != Op.NEWINIT:
                    continue
                owner = code[s - 1].args[0]
                owner_cls = self.compiled.classes.get(owner)
                if owner_cls is None:
                    continue
                var = (method.slot_names[slot]
                       if slot < len(method.slot_names) else None)
                if not var:
                    continue
                ref_fields = sorted(
                    f for f, d in owner_cls.layout.descriptors.items() if d == "ref"
                )
                for field in ref_fields:
                    entry = self._droppable_field(
                        mkey, method, cfg, idom, info, ins, fut_ret,
                        s, var, owner, field,
                    )
                    if entry is not None:
                        out.append(entry)
        return out

    def _droppable_field(self, mkey, method, cfg, idom, info, ins, fut_ret,
                         store_pc, var, owner, field) -> Optional[DroppableEntry]:
        if field in fut_ret or ANY in fut_ret:
            return None  # some caller continuation may still read it
        if field not in self.read_tokens:
            return None  # write-only: DRAG001/DRAG006 territory
        atoms = self.contents_of.get(field, EMPTY)
        if not any(a[0] in ("site", "cls") for a in atoms):
            return None  # nothing heap-ish pinned through it
        code = method.code
        store_line = code[store_pc].line
        by_line: Dict[int, List[int]] = {}
        for pc in range(len(code)):
            if info.lines[pc] or pc in (0,):
                by_line.setdefault(code[pc].line, []).append(pc)
        candidates = []
        for line in sorted(by_line):
            if line < store_line or line <= 0:
                continue
            pcs = by_line[line]
            if not all(dominates(idom, store_pc, pc) for pc in pcs):
                continue  # the owner local may be unassigned here
            safe = True
            for pc in pcs:
                for succ in cfg.succs[pc]:
                    if code[succ].line == line:
                        continue
                    fut = ins[succ]
                    if field in fut or ANY in fut:
                        safe = False
                        break
                if not safe:
                    break
            if safe:
                candidates.append(line)
        if not candidates:
            return None
        reads = self.reads_at.get(field, [])
        local_reads = [ln for k, ln in reads if k == mkey and ln <= candidates[0]]
        if local_reads:
            last_use = f"{mkey[0]}.{mkey[1]}:{max(local_reads)}"
        elif reads:
            rk, rline = max(reads, key=lambda r: (r[0] == mkey, r[1]))
            last_use = f"{rk[0]}.{rk[1]}:{rline}"
        else:
            last_use = "<none>"
        pinned = self.pinned_site_labels(field)
        paths = self.pinning_graph(field, root=f"{var}.{field}").paths(limit=3)
        explain = (
            f"pattern 4 (§3.4): {var} stays live but every access path "
            f"through {owner}.{field} is dead after line {candidates[0]} "
            f"(last use {last_use}; nothing in {mkey[0]}.{mkey[1]}'s "
            "continuation or any caller reads it)"
            + (f"; pins {', '.join(pinned[:4])}" if pinned else "")
            + (f"; pinning paths: {'; '.join(paths)}" if paths else "")
        )
        return DroppableEntry(
            mkey[0], mkey[1], var, owner, field, tuple(candidates[:5]),
            last_use, tuple(pinned), explain,
        )

    # -- pinning structure ----------------------------------------------------

    def pinning_graph(self, token: str, root: Optional[str] = None) -> AccessGraph:
        """Bounded access graph of what ``token`` transitively pins."""
        graph = AccessGraph.empty(root or token)
        frontier: List[Tuple[AccessGraph, str]] = [(graph, token)]
        seen_tokens: Set[str] = set()
        result = graph
        while frontier:
            prefix, tok = frontier.pop()
            if tok in seen_tokens:
                continue
            seen_tokens.add(tok)
            for atom in sorted(self.contents_of.get(tok, EMPTY)):
                if atom[0] == "site":
                    sid = atom[1]
                    site = self.compiled.site(sid)
                    ext = prefix.extend(f"{site.created}@{site.label}", sid)
                    result = result.union(ext)
                    created = site.created
                    if created in self.compiled.classes:
                        layout = self.compiled.classes[created].layout
                        for g in sorted(layout.descriptors):
                            if layout.descriptors[g] == "ref" and g in self.contents_of:
                                frontier.append((ext.extend(g), g))
                                result = result.union(ext.extend(g))
                    else:
                        name = self._region_names.get(self._find(("site", sid)))
                        if name is not None and name in self.contents_of:
                            frontier.append((ext.extend(name), name))
                            result = result.union(ext.extend(name))
                elif atom[0] == "cls":
                    ext = prefix.extend(atom[1])
                    result = result.union(ext)
        return result

    def pinned_site_labels(self, token: str) -> List[str]:
        """Labels of allocation sites transitively pinned via ``token``."""
        out: List[str] = []
        seen_sites: Set[int] = set()
        seen_tokens: Set[str] = set()
        work = [token]
        while work:
            tok = work.pop()
            if tok in seen_tokens:
                continue
            seen_tokens.add(tok)
            for atom in sorted(self.contents_of.get(tok, EMPTY)):
                if atom[0] != "site" or atom[1] in seen_sites:
                    continue
                sid = atom[1]
                seen_sites.add(sid)
                site = self.compiled.site(sid)
                if site.label not in out:
                    out.append(site.label)
                created = site.created
                if created in self.compiled.classes:
                    layout = self.compiled.classes[created].layout
                    for g in sorted(layout.descriptors):
                        if layout.descriptors[g] == "ref":
                            work.append(g)
                else:
                    name = self._region_names.get(self._find(("site", sid)))
                    if name is not None:
                        work.append(name)
        return out

