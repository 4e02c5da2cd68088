"""Interprocedural use analysis: whole-program verdicts for the linter.

The §5 analyses in :mod:`repro.analysis` are per-method (liveness,
lazy points) or per-field-scope (usage, indirect usage). This module
upgrades them to whole-program verdicts over the CHA call graph:

* **never-used fields/locals** — the usage + indirect-usage fixpoint
  restricted to call-graph-reachable methods (§5.4's "(R)" refinement),
  with the §5.5 exception gate (removal is only proposed when no
  handler could observe the removed code's OutOfMemoryError). This is
  literally :func:`repro.analysis.usage.dead_allocation_candidates`
  — the linter and the dead-code applier share one analysis core by
  design.

* **must-used fields** — a forward must-analysis (intersection merge,
  TOP initialization, :func:`repro.analysis.dataflow.solve` with a
  ``universe``) computing per-method summaries "fields definitely read
  by the time the method finishes". A call site reads the summaries of
  its targets, which :class:`~repro.analysis.callgraph.CallGraph`
  resolved once when it was built, and
  :func:`~repro.analysis.callgraph.call_graph_fixpoint` iterates the
  summaries callee-first to the greatest fixpoint, so the work done
  does not depend on the hash seed. Exception soundness: the
  per-method CFGs carry exception edges (a protected call merges the
  pre-call fact into its handler), and THROW exits participate in the
  summary intersection, so a path that leaves a method exceptionally
  never inflates its summary.
  The whole-program verdict unions main's summary with every
  ``<clinit>``'s (they always run). Instance fields are tracked by
  name (the bytecode's own resolution granularity) — good enough for
  the only consumer, severity adjustment of lazy candidates.

* **droppable locals** — reference locals that provably hold a fresh
  heap object and have a liveness-safe nulling point strictly before
  the method's last statement ("last use before allocation-site
  exit"): the §3.3.1 assign-null opportunity, validated by the same
  :func:`~repro.analysis.liveness.null_insertion_candidates` sweep
  the planner uses.

* **lazy field candidates** — constructor-assigned allocation fields
  with their §3.3.3 safety gates evaluated by
  :func:`~repro.analysis.lazy_points.lazy_allocation_gates`, the same
  helper the lazy-allocation applier refuses by (single assignment,
  constant args, ``lazy_safe`` constructor purity, no
  OutOfMemoryError handler anywhere).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set

from repro.analysis.callgraph import MethodKey, call_graph_fixpoint
from repro.analysis.dataflow import EMPTY, solve
from repro.analysis.lazy_points import lazy_allocation_gates
from repro.analysis.liveness import null_insertion_candidates
from repro.analysis.usage import DeadAllocationCandidates, dead_allocation_candidates
from repro.bytecode.opcodes import Op
from repro.bytecode.program import CompiledMethod
from repro.mjava import ast

# Instructions whose result is a freshly allocated (or newly
# materialized) heap reference.
_FRESH_REF_OPS = {Op.NEWINIT, Op.NEWARRAY, Op.CONCAT, Op.TOSTR, Op.CONST_STRING}


class DroppableLocal(NamedTuple):
    """A local reference with a safe early nulling point."""

    class_name: str
    method_name: str
    var_name: str
    alloc_line: int  # line of the store that fills it
    null_after_line: int  # earliest liveness-safe insertion line
    trailing_lines: int  # how many source lines of code follow the point


class LazyFieldCandidate(NamedTuple):
    """A constructor-allocated field with its §3.3.3 gate results."""

    class_name: str
    field_name: str
    alloc_line: int  # line of the ctor assignment / field initializer
    allocated: str  # what is allocated, for the message
    single_assignment: bool
    constant_args: bool
    ctor_lazy_safe: bool
    oom_unhandled: bool
    definitely_used: bool  # per the must-analysis: used on every run

    @property
    def all_gates_pass(self) -> bool:
        return (
            self.single_assignment
            and self.constant_args
            and self.ctor_lazy_safe
            and self.oom_unhandled
        )


class InterproceduralUseAnalysis:
    """Whole-program use facts for one compiled+linked program.

    Built from a :class:`repro.lint.passes.AnalysisContext`; every
    underlying artifact (compiled program, call graph, CFGs, thrown-
    exception sets) comes from the context's shared cache, so running
    this analysis after others re-runs nothing.
    """

    def __init__(self, context) -> None:
        self.context = context
        self._dead: Optional[DeadAllocationCandidates] = None
        self._must_summaries: Optional[Dict[MethodKey, FrozenSet[str]]] = None
        self._must_used: Optional[FrozenSet[str]] = None

    # -- never-used (the §5.1 fixpoint, reachability-restricted) ----------

    @property
    def dead(self) -> DeadAllocationCandidates:
        if self._dead is None:
            ctx = self.context
            self._dead = dead_allocation_candidates(
                ctx.program_ast, ctx.table, ctx.compiled, ctx.callgraph, ctx.exceptions
            )
        return self._dead

    # -- must-used fields (forward must-analysis over the call graph) -----

    def _method_must_use(
        self,
        key: MethodKey,
        summaries: Dict[MethodKey, FrozenSet[str]],
        universe: FrozenSet[str],
    ) -> FrozenSet[str]:
        """Fields definitely read on every path through the method
        (normal *or* exceptional exit), given current callee summaries."""
        callgraph = self.context.callgraph
        method = callgraph.method(key)
        code = method.code
        if not code:
            return EMPTY
        sites = callgraph.sites[key]
        cfg = self.context.cfg(method)

        def gen_kill(pc: int):
            targets = sites.get(pc)
            if targets:
                # A virtual call definitely reads only what *every* CHA
                # target definitely reads.
                gen: FrozenSet[str] = universe
                for target in targets:
                    gen = gen & summaries[target]
                return gen, EMPTY
            instr = code[pc]
            if instr.op == Op.GETFIELD:
                return frozenset((instr.args[0],)), EMPTY
            if instr.op == Op.GETSTATIC:
                return frozenset((f"{instr.args[0]}.{instr.args[1]}",)), EMPTY
            return EMPTY, EMPTY

        _, outs = solve(cfg, gen_kill, "forward", universe=universe)
        exits = cfg.exits or [len(code) - 1]
        summary = universe
        for pc in exits:
            summary = summary & outs[pc]
        return summary

    def must_summaries(self) -> Dict[MethodKey, FrozenSet[str]]:
        """Greatest-fixpoint per-method must-use summaries over the
        reachable portion of the call graph, solved callee-first."""
        if self._must_summaries is not None:
            return self._must_summaries
        ctx = self.context
        callgraph = ctx.callgraph
        universe: Set[str] = set()
        for cls in ctx.compiled.classes.values():
            universe.update(cls.layout.descriptors)
            for field in cls.static_fields:
                universe.add(f"{cls.name}.{field}")
        top = frozenset(universe)

        summaries: Dict[MethodKey, FrozenSet[str]] = {}
        keys: List[MethodKey] = []
        for key in callgraph.reachable:
            method = callgraph.method(key)
            if method is None or method.is_native:
                summaries[key] = EMPTY
            else:
                keys.append(key)
                summaries[key] = top  # TOP init: shrink to the fixpoint
        compute = partial(self._method_must_use, summaries=summaries, universe=top)
        call_graph_fixpoint(keys, callgraph.edges, summaries, compute, bottom_up=True)
        self._must_summaries = summaries
        return summaries

    def must_used_fields(self) -> FrozenSet[str]:
        """Field tokens definitely read on *every* program run: the
        union of main's summary and every ``<clinit>``'s."""
        if self._must_used is not None:
            return self._must_used
        ctx = self.context
        summaries = self.must_summaries()
        used: Set[str] = set()
        main_key = (ctx.compiled.main_class, "main")
        used.update(summaries.get(main_key, frozenset()))
        for name, cls in ctx.compiled.classes.items():
            if cls.clinit is not None:
                used.update(summaries.get((name, "<clinit>"), frozenset()))
        self._must_used = frozenset(used)
        return self._must_used

    def field_definitely_used(self, class_name: str, field_name: str, static: bool) -> bool:
        token = f"{class_name}.{field_name}" if static else field_name
        return token in self.must_used_fields()

    # -- droppable locals (§3.3.1, liveness-validated) --------------------

    def droppable_locals(self) -> List[DroppableLocal]:
        ctx = self.context
        out: List[DroppableLocal] = []
        for method in sorted(
            ctx.callgraph.reachable_compiled_methods(),
            key=lambda m: (m.class_name, m.name),
        ):
            cls = ctx.compiled.classes.get(method.class_name)
            if cls is None or cls.is_library or method.is_native or not method.code:
                continue
            last_line = max(i.line for i in method.code)
            first_local = method.param_count + (0 if method.is_static else 1)
            for slot in range(first_local, method.nlocals):
                if method.slot_types[slot] != "ref":
                    continue
                name = method.slot_names[slot]
                if name.startswith("$"):
                    continue
                stores = [
                    pc
                    for pc, i in enumerate(method.code)
                    if i.op == Op.STORE and i.args == (slot,)
                ]
                loads = [
                    pc
                    for pc, i in enumerate(method.code)
                    if i.op == Op.LOAD and i.args == (slot,)
                ]
                if not stores or not loads:
                    continue  # never-loaded locals are DRAG001's business
                if not self._holds_fresh_ref(method, stores):
                    continue
                candidates = null_insertion_candidates(method, name)
                candidates = [line for line in candidates if line < last_line]
                if not candidates:
                    continue
                alloc_line = method.code[stores[0]].line
                out.append(
                    DroppableLocal(
                        method.class_name,
                        method.name,
                        name,
                        alloc_line,
                        candidates[0],
                        last_line - candidates[0],
                    )
                )
        return out

    def _holds_fresh_ref(self, method: CompiledMethod, store_pcs: List[int]) -> bool:
        """Does some store to the slot plausibly bind a fresh heap
        object — a direct allocation, or a call that returns a
        reference (the allocation may happen in the callee)? Plain
        copies (LOAD/GETFIELD) are aliases; nulling an alias saves
        nothing, so they do not qualify."""
        callgraph = self.context.callgraph
        sites = callgraph.sites[(method.class_name, method.name)]
        for pc in store_pcs:
            if pc == 0:
                continue
            prev = method.code[pc - 1]
            if prev.op in _FRESH_REF_OPS:
                return True
            if prev.op in (Op.INVOKEV, Op.INVOKESTATIC, Op.INVOKESUPER):
                for target in sites.get(pc - 1, ()):
                    target_method = callgraph.method(target)
                    if target_method is not None and target_method.return_descriptor == "ref":
                        return True
        return False

    # -- lazy allocation candidates (§3.3.3) ------------------------------

    def lazy_field_candidates(self) -> List[LazyFieldCandidate]:
        ctx = self.context
        oom_unhandled = not ctx.exceptions.program_has_handler_for("OutOfMemoryError")
        out: List[LazyFieldCandidate] = []
        for decl in ctx.program_ast.classes:
            compiled_cls = ctx.compiled.classes.get(decl.name)
            if compiled_cls is None or compiled_cls.is_library:
                continue
            for field in sorted(decl.fields, key=lambda f: f.name):
                if field.mods.static:
                    continue
                gates = lazy_allocation_gates(ctx.table, decl, field, oom_unhandled)
                if gates.allocation is None:
                    continue
                out.append(
                    LazyFieldCandidate(
                        decl.name,
                        field.name,
                        gates.line,
                        _describe_alloc(gates.allocation),
                        gates.single_assignment,
                        gates.constant_args,
                        gates.ctor_lazy_safe,
                        oom_unhandled,
                        self.field_definitely_used(decl.name, field.name, static=False),
                    )
                )
        return out


def _describe_alloc(expr: ast.Expr) -> str:
    if isinstance(expr, ast.New):
        return f"new {expr.class_name}(...)"
    if isinstance(expr, ast.NewArray):
        return "a new array"
    return type(expr).__name__
