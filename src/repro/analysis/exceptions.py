"""Exception analysis (§5.5).

"The precise exception model of Java requires careful analysis in order
to enable the movement of code or the removal of code. Our
transformations involve code removal, thus the removed code must be
analyzed for the exceptions that it can throw. Then, the rest of the
code must be analyzed to verify that none of these exceptions could be
caught by an exception handler."

``ThrownExceptions`` computes, per method, the set of mini-Java
exception classes that may escape it — implicit VM exceptions (NPE,
bounds, arithmetic, class-cast, OOM) plus explicit throws — propagated
over the call graph, with covering catch clauses subtracted at each
call site. The special token ``ANY`` marks throws whose type could not
be bounded.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set

from repro.analysis.callgraph import CallGraph, MethodKey, call_graph_fixpoint
from repro.bytecode.opcodes import Op
from repro.bytecode.program import CompiledMethod, CompiledProgram

ANY = "<any-throwable>"

_IMPLICIT = {
    Op.GETFIELD: ("NullPointerException",),
    Op.PUTFIELD: ("NullPointerException",),
    Op.ARRAYLEN: ("NullPointerException",),
    Op.MONENTER: ("NullPointerException",),
    Op.MONEXIT: ("NullPointerException",),
    Op.ALOAD: ("NullPointerException", "IndexOutOfBoundsException"),
    Op.ASTORE: ("NullPointerException", "IndexOutOfBoundsException"),
    Op.DIV: ("ArithmeticException",),
    Op.MOD: ("ArithmeticException",),
    Op.CHECKCAST: ("ClassCastException",),
    Op.NEWARRAY: ("IndexOutOfBoundsException", "OutOfMemoryError"),
    Op.NEWINIT: ("OutOfMemoryError",),
    Op.TOSTR: ("OutOfMemoryError",),
    Op.CONCAT: ("OutOfMemoryError", "NullPointerException"),
    Op.CONST_STRING: ("OutOfMemoryError",),
}


class ThrownExceptions:
    """May-throw sets per method over a call graph."""

    def __init__(self, program: CompiledProgram, callgraph: Optional[CallGraph] = None) -> None:
        self.program = program
        self.callgraph = callgraph or CallGraph(program)
        self.may_throw: Dict[MethodKey, FrozenSet[str]] = dict.fromkeys(
            self.callgraph.reachable, frozenset()
        )
        call_graph_fixpoint(self.callgraph.reachable, self.callgraph.edges,
                            self.may_throw, self._compute, bottom_up=True)

    # -- local facts -----------------------------------------------------------

    def _explicit_throw_types(self, method: CompiledMethod) -> Set[str]:
        """Bound the types a THROW in this method can raise: throwables
        allocated here plus exception classes of this method's own
        handlers (rethrow); ANY if a THROW exists but nothing bounds it."""
        has_throw = any(i.op == Op.THROW for i in method.code)
        if not has_throw:
            return set()
        types: Set[str] = set()
        for instr in method.code:
            if instr.op == Op.NEWINIT and self.program.is_subclass(
                instr.args[0], "Throwable"
            ):
                types.add(instr.args[0])
        for entry in method.exception_table:
            if entry.kind == "catch":
                types.add(entry.exc_class)
        return types or {ANY}

    def _escapes(self, method: CompiledMethod, pc: int, raised: Set[str]) -> Set[str]:
        """Subtract exceptions caught by handlers covering ``pc``."""
        remaining = set(raised)
        for entry in method.exception_table:
            if entry.kind != "catch" or not entry.covers(pc):
                continue
            remaining = {
                e
                for e in remaining
                if e == ANY and entry.exc_class != "Throwable"
                or (e != ANY and not self.program.is_subclass(e, entry.exc_class))
            }
        return remaining

    def _compute(self, key: MethodKey) -> FrozenSet[str]:
        method = self.callgraph.method(key)
        if method is None or method.is_native:
            # Natives can raise the usual VM exceptions.
            return frozenset({"NullPointerException", "IndexOutOfBoundsException"})
        explicit = self._explicit_throw_types(method)
        sites = self.callgraph.sites[key]
        out: Set[str] = set()
        for pc, instr in enumerate(method.code):
            raised: Set[str] = set(_IMPLICIT.get(instr.op, ()))
            if instr.op == Op.THROW:
                raised |= explicit
            for target in sites.get(pc, ()):
                raised |= self.may_throw[target]
            out |= self._escapes(method, pc, raised)
        return frozenset(out)

    # -- queries ------------------------------------------------------------------

    def of(self, class_name: str, method_name: str) -> FrozenSet[str]:
        return self.may_throw.get((class_name, method_name), frozenset())

    def program_has_handler_for(self, exc_class: str, include_library: bool = True) -> bool:
        """§3.3.2/§3.3.3 safety check: is there *any* handler in the
        program that could catch ``exc_class``? (For lazy allocation the
        paper checked there were no handlers for OutOfMemoryError.)"""
        for cls in self.program.classes.values():
            if cls.is_library and not include_library:
                continue
            methods = list(cls.methods.values())
            if cls.ctor is not None:
                methods.append(cls.ctor)
            if cls.clinit is not None:
                methods.append(cls.clinit)
            for method in methods:
                if method.is_native:
                    continue
                for entry in method.exception_table:
                    if entry.kind != "catch":
                        continue
                    if self.program.is_subclass(exc_class, entry.exc_class):
                        return True
        return False
