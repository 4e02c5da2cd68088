"""Call graph construction and reachable-method analysis (§5.4).

"The call graph shows the methods that are never called (unreachable
methods) and can be used to reduce the set of possible targets for a
virtual call site."

We use CHA-flavoured resolution on bytecode: a virtual invoke of ``m``
from a site dispatches to every non-static method named ``m`` (mini-Java
has no overloading, so name+arity identifies the method family); static
and super invokes resolve exactly. Reachability starts from ``main``,
every ``<clinit>``, and every finalizer of an instantiated class.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.bytecode.opcodes import Op
from repro.bytecode.program import CompiledMethod, CompiledProgram

MethodKey = Tuple[str, str]  # (class, method name)


class CallGraph:
    """Edges between methods plus the reachable set."""

    def __init__(self, program: CompiledProgram) -> None:
        self.program = program
        self.edges: Dict[MethodKey, Set[MethodKey]] = {}
        self.reachable: Set[MethodKey] = set()
        self._build()

    # -- resolution ---------------------------------------------------------

    def _virtual_targets(self, name: str, argc: int) -> List[MethodKey]:
        out = []
        for cls_name, cls in self.program.classes.items():
            method = cls.methods.get(name)
            if method is not None and not method.is_static and method.param_count == argc:
                out.append((cls_name, name))
        return out

    def _static_target(self, class_name: str, name: str) -> Optional[MethodKey]:
        method = self.program.lookup_method(class_name, name)
        if method is None:
            return None
        return (method.class_name, method.name)

    def _method(self, key: MethodKey) -> Optional[CompiledMethod]:
        cls = self.program.classes.get(key[0])
        if cls is None:
            return None
        if key[1] == "<init>":
            return cls.ctor
        if key[1] == "<clinit>":
            return cls.clinit
        return cls.methods.get(key[1])

    def _callees(self, method: CompiledMethod) -> Set[MethodKey]:
        out: Set[MethodKey] = set()
        for instr in method.code:
            op = instr.op
            if op == Op.INVOKEV:
                name, argc = instr.args
                out.update(self._virtual_targets(name, argc))
            elif op in (Op.INVOKESTATIC, Op.INVOKESUPER):
                cls_name, name, _ = instr.args
                target = self._static_target(cls_name, name)
                if target is not None:
                    out.add(target)
            elif op == Op.NEWINIT:
                cls_name, _ = instr.args
                out.add((cls_name, "<init>"))
            elif op == Op.SUPERINIT:
                cls_name, _ = instr.args
                out.add((cls_name, "<init>"))
        return out

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        roots: List[MethodKey] = []
        if self.program.main_class:
            roots.append((self.program.main_class, "main"))
        for name, cls in self.program.classes.items():
            if cls.clinit is not None:
                roots.append((name, "<clinit>"))
        worklist = deque(roots)
        self.reachable.update(roots)
        while worklist:
            key = worklist.popleft()
            method = self._method(key)
            if method is None or method.is_native:
                continue
            callees = self._callees(method)
            # Instantiating a class with a finalizer makes the finalizer
            # reachable (the collector calls it).
            for target_cls, target_name in list(callees):
                if target_name == "<init>":
                    fin = self.program.classes[target_cls].methods.get("finalize")
                    if fin is not None:
                        callees.add((target_cls, "finalize"))
            self.edges[key] = callees
            for callee in callees:
                if callee not in self.reachable:
                    self.reachable.add(callee)
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
            method = self._method(key)
            if method is not None:
                out.append(method)
        return out

    def callers_of(self, class_name: str, method_name: str) -> Set[MethodKey]:
        target = (class_name, method_name)
        return {src for src, dsts in self.edges.items() if target in dsts}


def build_call_graph(program: CompiledProgram) -> CallGraph:
    return CallGraph(program)
