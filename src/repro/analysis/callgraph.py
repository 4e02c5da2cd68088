"""Call graph construction and reachable-method analysis (§5.4).

"The call graph shows the methods that are never called (unreachable
methods) and can be used to reduce the set of possible targets for a
virtual call site."

We use CHA-flavoured resolution on bytecode: a virtual invoke of ``m``
from a site dispatches to every non-static method named ``m`` (mini-Java
has no overloading, so name+arity identifies the method family); static
and super invokes resolve exactly. Reachability starts from ``main``,
every ``<clinit>``, and every finalizer of an instantiated class.

:class:`CallGraph` is the one place that resolves calls: every other
analysis asks it for an instruction's targets (:meth:`CallGraph.targets`),
a virtual family (:meth:`CallGraph.family`) or a key's method
(:meth:`CallGraph.method`), and reads each reachable method's resolved
call sites from :attr:`CallGraph.sites` rather than resolving them
again. Everything is kept in discovery order, so no analysis depends on
the hash seed. :func:`call_graph_fixpoint` is the one interprocedural
worklist the summary analyses share.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.bytecode.opcodes import Op
from repro.bytecode.instr import Instr
from repro.bytecode.program import CompiledMethod, CompiledProgram
from repro.snapshot.dominators import reverse_postorder

MethodKey = Tuple[str, str]  # (class, method name)

_CALL_OPS = frozenset({Op.INVOKEV, Op.INVOKESTATIC, Op.INVOKESUPER, Op.NEWINIT, Op.SUPERINIT})


class CallGraph:
    """Edges between methods plus the reachable set.

    ``reachable`` maps each reachable key to None in discovery order
    (roots first); ``edges`` holds each method's callees in order,
    without repeats; ``sites`` maps a reachable method's key to
    ``{pc: targets}`` for every call instruction in it; ``instantiated``
    holds every class a reachable ``NEWINIT`` creates.
    """

    def __init__(self, program: CompiledProgram) -> None:
        self.program = program
        self.edges: Dict[MethodKey, Tuple[MethodKey, ...]] = {}
        self.reachable: Dict[MethodKey, None] = {}
        self.sites: Dict[MethodKey, Dict[int, Tuple[MethodKey, ...]]] = {}
        self.instantiated: Set[str] = set()
        self._families: Dict[Tuple[str, int], Tuple[MethodKey, ...]] = {}
        self._build()

    # -- resolution ---------------------------------------------------------

    def family(self, name: str, argc: int) -> Tuple[MethodKey, ...]:
        """Every non-static method named ``name`` taking ``argc``
        arguments, sorted: the CHA target set of a virtual call."""
        fam = self._families.get((name, argc))
        if fam is None:
            fam = self._families[(name, argc)] = tuple(sorted(
                (cls_name, name)
                for cls_name, cls in self.program.classes.items()
                if (m := cls.methods.get(name)) is not None
                and not m.is_static and m.param_count == argc
            ))
        return fam

    def targets(self, instr: Instr) -> Tuple[MethodKey, ...]:
        """The method keys a call instruction may invoke; () for any
        other instruction."""
        op = instr.op
        if op == Op.INVOKEV:
            return self.family(*instr.args)
        if op == Op.NEWINIT or op == Op.SUPERINIT:
            return ((instr.args[0], "<init>"),)
        if op == Op.INVOKESTATIC or op == Op.INVOKESUPER:
            method = self.program.lookup_method(instr.args[0], instr.args[1])
            return () if method is None else ((method.class_name, method.name),)
        return ()

    def method(self, key: MethodKey) -> Optional[CompiledMethod]:
        """The compiled method a key names (declared in that class)."""
        cls = self.program.classes.get(key[0])
        if cls is None:
            return None
        if key[1] == "<init>":
            return cls.ctor
        if key[1] == "<clinit>":
            return cls.clinit
        return cls.methods.get(key[1])

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        roots: List[MethodKey] = []
        if self.program.main_class:
            roots.append((self.program.main_class, "main"))
        for name, cls in self.program.classes.items():
            if cls.clinit is not None:
                roots.append((name, "<clinit>"))
        worklist = deque(roots)
        self.reachable.update(dict.fromkeys(roots))
        while worklist:
            key = worklist.popleft()
            method = self.method(key)
            if method is None or method.is_native:
                continue
            sites: Dict[int, Tuple[MethodKey, ...]] = {}
            callees: Dict[MethodKey, None] = {}
            for pc, instr in enumerate(method.code):
                if instr.op not in _CALL_OPS:
                    continue
                targets = sites[pc] = self.targets(instr)
                callees.update(dict.fromkeys(targets))
                if instr.op == Op.NEWINIT or instr.op == Op.SUPERINIT:
                    # Constructing a class with a finalizer makes the
                    # finalizer reachable (the collector calls it).
                    cls_name = instr.args[0]
                    if instr.op == Op.NEWINIT:
                        self.instantiated.add(cls_name)
                    if "finalize" in self.program.classes[cls_name].methods:
                        callees[(cls_name, "finalize")] = None
            self.sites[key] = sites
            self.edges[key] = tuple(callees)
            for callee in callees:
                if callee not in self.reachable:
                    self.reachable[callee] = None
                    worklist.append(callee)

    # -- queries --------------------------------------------------------------

    def is_reachable(self, class_name: str, method_name: str) -> bool:
        return (class_name, method_name) in self.reachable

    def unreachable_methods(self, include_library: bool = False) -> List[MethodKey]:
        """Declared methods never called from main/<clinit> — the §5.4
        information that invalidates "possible uses" in dead code."""
        out = []
        for name, cls in sorted(self.program.classes.items()):
            if cls.is_library and not include_library:
                continue
            for method_name in sorted(cls.methods):
                if (name, method_name) not in self.reachable:
                    out.append((name, method_name))
        return out

    def reachable_compiled_methods(self) -> List[CompiledMethod]:
        out = []
        for key in self.reachable:
            method = self.method(key)
            if method is not None:
                out.append(method)
        return out

    def callers_of(self, class_name: str, method_name: str) -> List[MethodKey]:
        target = (class_name, method_name)
        return [src for src, dsts in self.edges.items() if target in dsts]


def call_graph_fixpoint(
    keys: Iterable[MethodKey],
    edges: Mapping[MethodKey, Sequence[MethodKey]],
    values: Dict[MethodKey, object],
    compute: Callable[[MethodKey], object],
    bottom_up: bool,
) -> Dict[MethodKey, object]:
    """Iterate ``values[key] = compute(key)`` over ``keys`` until no
    value changes; returns ``values``, updated in place.

    ``edges`` maps a key to its callees. A bottom-up fact (a method's
    value reads its callees' values) is seeded callee-first — postorder
    of the call graph from ``keys`` in order — and a change requeues the
    key's callers. A top-down fact (it reads its callers') is seeded
    caller-first — reverse postorder — and a change requeues the
    callees. Keys outside ``keys`` keep their value. The order depends
    only on the order of ``keys`` and ``edges``, never on hashing.
    """
    keys = list(keys)
    index = {key: i for i, key in enumerate(keys, 1)}
    # Node 0 is a virtual root calling every key, so one DFS covers all.
    succ = [list(range(1, len(keys) + 1))]
    dependents: Dict[MethodKey, List[MethodKey]] = {}
    for key in keys:
        callees = [callee for callee in edges.get(key, ()) if callee in index]
        succ.append([index[callee] for callee in callees])
        if bottom_up:
            for callee in callees:
                dependents.setdefault(callee, []).append(key)
        else:
            dependents[key] = callees
    order = [keys[i - 1] for i in reverse_postorder(succ)[1:]]
    if bottom_up:
        order.reverse()
    worklist = deque(order)
    queued = set(order)
    while worklist:
        key = worklist.popleft()
        queued.discard(key)
        new = compute(key)
        if new != values[key]:
            values[key] = new
            for dependent in dependents.get(key, ()):
                if dependent not in queued:
                    queued.add(dependent)
                    worklist.append(dependent)
    return values
