"""The lint pass manager: compile once, analyze once, run many rules.

:class:`AnalysisContext` owns every expensive artifact — the linked
AST, the class table, the compiled bytecode, per-method CFGs, the CHA
call graph, thrown-exception sets, the interprocedural use analysis
and the heap liveness analysis — each built lazily and exactly once.
Every registered pass receives the same context, so N rules cost one
compilation and one run of each underlying analysis no matter how they
overlap (the context counts builds; ``tests/lint/test_passes.py`` pins
the reuse).

:class:`PassManager` runs registered :class:`Pass` objects in
dependency order: a pass declares ``requires`` (names of passes whose
results it consumes) and the manager topologically sorts the requested
subset, runs each at most once, and caches results. Rule passes emit
:class:`~repro.lint.diagnostics.Diagnostic` objects into the shared
:class:`~repro.lint.diagnostics.LintResult`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.analysis.callgraph import CallGraph
from repro.analysis.cfg import ControlFlowGraph, build_cfg
from repro.analysis.exceptions import ThrownExceptions
from repro.bytecode.program import CompiledMethod, CompiledProgram
from repro.errors import ReproError
from repro.lint.diagnostics import Diagnostic, LintResult, SourceSpan
from repro.lint.interproc import InterproceduralUseAnalysis
from repro.lint.rules import (
    ALL_RULES,
    DRAG001,
    DRAG002,
    DRAG003,
    DRAG004,
    DRAG005,
    DRAG006,
    DRAG007,
    DRAG008,
)
from repro.mjava import ast
from repro.mjava.compiler import compile_program
from repro.mjava.sema import ClassTable


class LintError(ReproError):
    """Pass-manager misconfiguration (unknown pass, dependency cycle)."""


class AnalysisContext:
    """Shared, lazily-built analysis artifacts for one program."""

    def __init__(self, program_ast: ast.Program, main_class: str) -> None:
        self.program_ast = program_ast
        self.main_class = main_class
        self._table: Optional[ClassTable] = None
        self._compiled: Optional[CompiledProgram] = None
        self._callgraph: Optional[CallGraph] = None
        self._exceptions: Optional[ThrownExceptions] = None
        self._interproc: Optional[InterproceduralUseAnalysis] = None
        self._heap_liveness = None
        self._cfgs: Dict[int, ControlFlowGraph] = {}
        # Dynamic evidence, attached by the caller rather than lazily
        # built: a repro.snapshot.SnapshotAnalysis of a captured heap
        # and the run's DragAnalysis. DRAG008 is the only consumer and
        # stays silent when no snapshot is attached, so purely static
        # lint runs are unchanged.
        self.snapshot = None
        self.drag = None
        # Build accounting, so tests can pin "exactly once".
        self.build_counts: Dict[str, int] = {}

    def _count(self, what: str) -> None:
        self.build_counts[what] = self.build_counts.get(what, 0) + 1

    @property
    def table(self) -> ClassTable:
        if self._table is None:
            self._count("table")
            self._table = ClassTable(self.program_ast)
        return self._table

    @property
    def compiled(self) -> CompiledProgram:
        if self._compiled is None:
            self._count("compile")
            self._compiled = compile_program(
                self.program_ast, main_class=self.main_class, table=self.table
            )
        return self._compiled

    @property
    def callgraph(self) -> CallGraph:
        if self._callgraph is None:
            self._count("callgraph")
            self._callgraph = CallGraph(self.compiled)
        return self._callgraph

    @property
    def exceptions(self) -> ThrownExceptions:
        if self._exceptions is None:
            self._count("exceptions")
            self._exceptions = ThrownExceptions(self.compiled, self.callgraph)
        return self._exceptions

    @property
    def interproc(self) -> InterproceduralUseAnalysis:
        if self._interproc is None:
            self._count("interproc")
            self._interproc = InterproceduralUseAnalysis(self)
        return self._interproc

    @property
    def heap_liveness(self):
        if self._heap_liveness is None:
            from repro.analysis.heap_liveness import HeapLivenessAnalysis

            self._count("heap-liveness")
            self._heap_liveness = HeapLivenessAnalysis(
                self.compiled, self.cfg, self.callgraph
            )
        return self._heap_liveness

    def cfg(self, method: CompiledMethod) -> ControlFlowGraph:
        """Per-method CFG, built once per method across all passes."""
        key = id(method)
        cfg = self._cfgs.get(key)
        if cfg is None:
            self._count("cfg")
            cfg = self._cfgs[key] = build_cfg(method)
        return cfg


class Pass:
    """One registered analysis or rule pass."""

    def __init__(
        self,
        name: str,
        fn: Callable[[AnalysisContext, LintResult], object],
        requires: Sequence[str] = (),
        rule_id: Optional[str] = None,
    ) -> None:
        self.name = name
        self.fn = fn
        self.requires = tuple(requires)
        self.rule_id = rule_id  # set for rule passes, None for analyses

    def __repr__(self) -> str:
        return f"<pass {self.name} requires={list(self.requires)}>"


class PassManager:
    """Registers passes, orders them by dependencies, runs each once.

    ``telemetry`` (a :class:`repro.obs.Telemetry`, or None) wraps each
    pass execution in a ``lint.pass.<name>`` span and feeds the
    ``repro_lint_pass_seconds`` histogram; per-pass wall durations are
    always kept in :attr:`durations` for the CLI summary.
    """

    def __init__(self, context: AnalysisContext, telemetry=None) -> None:
        self.context = context
        self.telemetry = telemetry
        self.passes: Dict[str, Pass] = {}
        self.results: Dict[str, object] = {}
        self.run_counts: Dict[str, int] = {}
        self.durations: Dict[str, float] = {}

    def register(self, pass_: Pass) -> None:
        if pass_.name in self.passes:
            raise LintError(f"pass {pass_.name!r} registered twice")
        self.passes[pass_.name] = pass_

    def schedule(self, names: Sequence[str]) -> List[str]:
        """Topological order covering ``names`` and their transitive
        dependencies; deterministic (requested order, deps first)."""
        order: List[str] = []
        visiting: Set[str] = set()
        done: Set[str] = set()

        def visit(name: str) -> None:
            if name in done:
                return
            if name in visiting:
                raise LintError(f"dependency cycle through pass {name!r}")
            pass_ = self.passes.get(name)
            if pass_ is None:
                raise LintError(f"unknown pass {name!r}")
            visiting.add(name)
            for dep in pass_.requires:
                visit(dep)
            visiting.discard(name)
            done.add(name)
            order.append(name)

        for name in names:
            visit(name)
        return order

    def run(self, name: str, result: LintResult):
        """Run one pass (dependencies first); cached after the first
        call, so shared dependencies execute exactly once."""
        if name in self.results:
            return self.results[name]
        telemetry = self.telemetry
        for dep in self.schedule([name]):
            if dep in self.results:
                continue
            self.run_counts[dep] = self.run_counts.get(dep, 0) + 1
            started = perf_counter()
            if telemetry is None:
                self.results[dep] = self.passes[dep].fn(self.context, result)
            else:
                with telemetry.span(f"lint.pass.{dep}", category="lint"):
                    self.results[dep] = self.passes[dep].fn(self.context, result)
            elapsed = perf_counter() - started
            self.durations[dep] = self.durations.get(dep, 0.0) + elapsed
            if telemetry is not None:
                telemetry.record_lint_pass(dep, elapsed)
        return self.results[name]

    def run_all(self, result: LintResult, rules: Optional[Sequence[str]] = None) -> LintResult:
        """Run every rule pass (or the requested rule IDs) and collect
        diagnostics into ``result``."""
        wanted = set(rules) if rules is not None else None
        for name in self.schedule(sorted(self.passes)):
            pass_ = self.passes[name]
            if pass_.rule_id is None:
                continue  # analyses run on demand, as dependencies
            if wanted is not None and pass_.rule_id not in wanted:
                continue
            self.run(name, result)
        return result


# ---------------------------------------------------------------------------
# The standard pass pipeline
# ---------------------------------------------------------------------------


def _pass_callgraph(ctx: AnalysisContext, result: LintResult):
    return ctx.callgraph


def _pass_exceptions(ctx: AnalysisContext, result: LintResult):
    return ctx.exceptions


def _pass_interproc(ctx: AnalysisContext, result: LintResult):
    # Force the expensive pieces so dependents see a warm cache.
    analysis = ctx.interproc
    analysis.dead
    return analysis


def _member_of_line(decl: ast.ClassDecl, line: int) -> str:
    """Best-effort member name containing a source line (for spans)."""
    for ctor in decl.ctors:
        for node in ctor.body.walk():
            if node.pos.line == line:
                return "<init>"
    for method in decl.methods:
        if method.body is None:
            continue
        for node in method.body.walk():
            if node.pos.line == line:
                return method.name
    for field in decl.fields:
        if field.pos.line == line:
            return "<clinit>" if field.mods.static else "<init>"
    return "<init>"


def _pass_drag001(ctx: AnalysisContext, result: LintResult):
    """Never-used allocations: dead fields/statics, dead locals,
    write-only arrays — the exact candidate set dead-code removal acts
    on (same function, same gates)."""
    dead = ctx.interproc.dead
    program = ctx.program_ast
    # No library exemption anywhere in this pass: the candidate set is
    # the rewriter's own, and the paper's db fix removes the JDK's
    # never-used Locale tables — the linter must say so too.
    for class_name, field_name in sorted(dead.dead_fields | dead.dead_statics):
        decl = program.find_class(class_name)
        compiled_cls = ctx.compiled.classes.get(class_name)
        if decl is None or compiled_cls is None:
            continue
        static = (class_name, field_name) in dead.dead_statics
        spans = _field_store_spans(ctx, decl, field_name)
        if not spans:
            field_decl = next((f for f in decl.fields if f.name == field_name), None)
            line = field_decl.pos.line if field_decl is not None else decl.pos.line
            spans = [SourceSpan(class_name, "<clinit>" if static else "<init>", line)]
        primary = spans[0]
        result.add(
            Diagnostic(
                DRAG001,
                primary,
                f"{'static ' if static else ''}field {class_name}.{field_name} "
                "is written but never read in any reachable method; its "
                "allocating stores are removable dead code",
                subject=("field", class_name, field_name),
                extra={"alt_labels": [s.label for s in spans[1:]]},
            )
        )
    for qualified, names in sorted(dead.dead_locals.items()):
        class_name, _, method_name = qualified.partition(".")
        if class_name not in ctx.compiled.classes:
            continue
        for var in sorted(names):
            line = _local_decl_line(ctx, class_name, method_name, var)
            result.add(
                Diagnostic(
                    DRAG001,
                    SourceSpan(class_name, method_name, line),
                    f"local {var} in {qualified} is assigned but never "
                    "read; its allocation is removable dead code",
                    subject=("local", class_name, method_name, var),
                )
            )
    for class_name, (line, _col, _kind) in sorted(dead.array_store_sigs):
        if class_name not in ctx.compiled.classes:
            continue
        decl = program.find_class(class_name)
        member = _member_of_line(decl, line) if decl is not None else "<init>"
        result.add(
            Diagnostic(
                DRAG001,
                SourceSpan(class_name, member, line),
                f"array element store at {class_name}:{line} fills a "
                "write-only array; the stored allocation is never read",
                subject=("array-store", class_name, line),
            )
        )
    return dead


def _field_store_spans(ctx: AnalysisContext, decl: ast.ClassDecl, field_name: str):
    """Source spans of every store to a field whose RHS allocates —
    these are the allocation sites the profiler will attribute drag to."""
    spans = []
    for field in decl.fields:
        if field.name == field_name and field.init is not None:
            member = "<clinit>" if field.mods.static else "<init>"
            spans.append(SourceSpan(decl.name, member, field.pos.line))
    members = [("<init>", ctor.body) for ctor in decl.ctors] + [
        (m.name, m.body) for m in decl.methods if m.body is not None
    ]
    for member_name, body in members:
        for node in body.walk():
            if not isinstance(node, ast.Assign):
                continue
            target = node.target
            hits = (isinstance(target, ast.Name) and target.ident == field_name) or (
                isinstance(target, ast.FieldAccess)
                and target.name == field_name
                and isinstance(target.target, ast.This)
            )
            if hits:
                spans.append(SourceSpan(decl.name, member_name, node.pos.line))
    return spans


def _local_decl_line(ctx: AnalysisContext, class_name: str, method_name: str, var: str) -> int:
    decl = ctx.program_ast.find_class(class_name)
    if decl is not None:
        for method in decl.methods:
            if method.name != method_name or method.body is None:
                continue
            for node in method.body.walk():
                if isinstance(node, ast.VarDecl) and node.name == var:
                    return node.pos.line
        for ctor in decl.ctors if method_name == "<init>" else []:
            for node in ctor.body.walk():
                if isinstance(node, ast.VarDecl) and node.name == var:
                    return node.pos.line
    cls = ctx.compiled.classes.get(class_name)
    return cls.line if cls is not None else 0


def _pass_drag002(ctx: AnalysisContext, result: LintResult):
    """Droppable references: liveness-safe early nulling points for
    heap-holding locals, and logical-size array slots."""
    from repro.analysis.array_liveness import logical_size_pairs, removal_points

    droppables = ctx.interproc.droppable_locals()
    for item in droppables:
        result.add(
            Diagnostic(
                DRAG002,
                SourceSpan(item.class_name, item.method_name, item.alloc_line),
                f"local {item.var_name} in {item.class_name}."
                f"{item.method_name} has no use after line "
                f"{item.null_after_line} but stays reachable for "
                f"{item.trailing_lines} more line(s); assign null after "
                f"line {item.null_after_line}",
                subject=("local", item.class_name, item.method_name, item.var_name),
                extra={"null_after_line": item.null_after_line},
            )
        )
    # Library classes participate too when the program actually
    # instantiates them — the paper's jess rewrite clears slots of the
    # JDK's own Vector, so "library" is no exemption here.
    instantiated = ctx.callgraph.instantiated
    for decl in ctx.program_ast.classes:
        compiled_cls = ctx.compiled.classes.get(decl.name)
        if compiled_cls is None:
            continue
        if compiled_cls.is_library and decl.name not in instantiated:
            continue
        for pair in logical_size_pairs(ctx.table, decl.name):
            points = removal_points(ctx.table, decl.name, pair)
            if not points:
                continue
            member, stmt = points[0]
            array_field, size_field = pair
            result.add(
                Diagnostic(
                    DRAG002,
                    SourceSpan(decl.name, member, stmt.pos.line),
                    f"{decl.name}.{array_field} is a logical-size array "
                    f"bounded by {size_field}: elements at indices >= "
                    f"{size_field} are dead; clear "
                    f"{array_field}[{size_field}] after each removal "
                    f"({len(points)} removal point(s))",
                    subject=("array", decl.name, array_field, size_field),
                )
            )
    return droppables


def _pass_drag003(ctx: AnalysisContext, result: LintResult):
    """Lazy-allocation candidates, with §3.3.3 safety gates graded
    into the severity: all gates pass → warning; otherwise note."""
    candidates = ctx.interproc.lazy_field_candidates()
    for cand in candidates:
        gates_failed = []
        if not cand.single_assignment:
            gates_failed.append("field is assigned more than once")
        if not cand.constant_args:
            gates_failed.append("constructor args are not constants")
        if not cand.ctor_lazy_safe:
            gates_failed.append("constructor is not provably pure")
        if not cand.oom_unhandled:
            gates_failed.append("an OutOfMemoryError handler exists")
        severity = "warning" if not gates_failed else "note"
        message = (
            f"{cand.class_name}.{cand.field_name} eagerly allocates "
            f"{cand.allocated} in its constructor"
        )
        if cand.definitely_used:
            message += (
                "; note: the field is read on every program path, so "
                "laziness only delays (not avoids) the allocation"
            )
        if gates_failed:
            message += "; not auto-rewritable: " + "; ".join(gates_failed)
        else:
            message += "; allocate on first use instead"
        result.add(
            Diagnostic(
                DRAG003,
                SourceSpan(cand.class_name, "<init>", cand.alloc_line),
                message,
                severity=severity,
                subject=("field", cand.class_name, cand.field_name),
                extra={"all_gates_pass": cand.all_gates_pass,
                       "definitely_used": cand.definitely_used},
            )
        )
    return candidates


def _pass_drag004(ctx: AnalysisContext, result: LintResult):
    """Unreachable methods (application code only)."""
    unreachable = ctx.callgraph.unreachable_methods(include_library=False)
    for class_name, method_name in unreachable:
        cls = ctx.compiled.classes.get(class_name)
        method = cls.methods.get(method_name) if cls is not None else None
        line = method.line if method is not None else 0
        result.add(
            Diagnostic(
                DRAG004,
                SourceSpan(class_name, method_name, line),
                f"method {class_name}.{method_name} is unreachable from "
                "main and every static initializer; it (and its "
                "allocations) can be deleted",
                subject=("method", class_name, method_name),
            )
        )
    return unreachable


#: Array allocations at or above this many bytes are "large" for DRAG005.
OVERSIZED_ARRAY_BYTES = 2048

_ELEM_BYTES = {"int": 4, "char": 2, "boolean": 1}


def _pass_drag005(ctx: AnalysisContext, result: LintResult):
    """Constant-length array allocations reserving a large block."""
    from repro.analysis.array_liveness import logical_size_pairs

    findings = []
    for decl in ctx.program_ast.classes:
        compiled_cls = ctx.compiled.classes.get(decl.name)
        if compiled_cls is None or compiled_cls.is_library:
            continue
        pairs = dict(logical_size_pairs(ctx.table, decl.name))
        members = [("<init>", ctor.body) for ctor in decl.ctors] + [
            (m.name, m.body) for m in decl.methods if m.body is not None
        ]
        for field in decl.fields:
            if field.init is not None:
                members.append(
                    ("<clinit>" if field.mods.static else "<init>",
                     ast.Block([ast.ExprStmt(field.init, pos=field.pos)], pos=field.pos))
                )
        for member_name, body in members:
            for node in body.walk():
                if not isinstance(node, ast.NewArray):
                    continue
                if not isinstance(node.length, ast.IntLit):
                    continue
                elem = getattr(node.element_type, "name", str(node.element_type))
                nbytes = _ELEM_BYTES.get(elem, 4) * node.length.value
                if nbytes < OVERSIZED_ARRAY_BYTES:
                    continue
                message = (
                    f"constant-length array of {node.length.value} "
                    f"elements (~{nbytes} bytes) allocated up front"
                )
                suggestion = "size on demand, or allocate lazily"
                field_owner = _assigned_field_name(body, node)
                if field_owner is not None and field_owner in pairs:
                    message += (
                        f"; {decl.name}.{field_owner} tracks its logical "
                        f"size in {pairs[field_owner]}, so slots beyond it "
                        "are dead capacity"
                    )
                    suggestion = "clear dead slots / grow on demand"
                result.add(
                    Diagnostic(
                        DRAG005,
                        SourceSpan(decl.name, member_name, node.pos.line),
                        message + f"; {suggestion}",
                        subject=("array", decl.name, member_name, node.pos.line),
                    )
                )
                findings.append((decl.name, member_name, node.pos.line, nbytes))
    return findings


def _assigned_field_name(body: ast.Block, alloc: ast.NewArray):
    for node in body.walk():
        if isinstance(node, ast.Assign) and node.value is alloc:
            target = node.target
            if isinstance(target, ast.Name):
                return target.ident
            if isinstance(target, ast.FieldAccess) and isinstance(target.target, ast.This):
                return target.name
    return None


def _pass_heap_liveness(ctx: AnalysisContext, result: LintResult):
    """Build the whole-program heap liveness analysis; its soundness
    notes (escape-hatch degradations, widenings) become result notes."""
    analysis = ctx.heap_liveness
    for note in analysis.notes:
        if note not in result.notes:
            result.notes.append(note)
    return analysis


def _pass_drag006(ctx: AnalysisContext, result: LintResult):
    """Dead heap paths: tokens written but never observably read.

    Stores already covered by DRAG001's dead sets are skipped — there
    the allocation itself is removable, which is strictly better than
    nulling the store."""
    hl = ctx.heap_liveness
    dead = ctx.interproc.dead
    program = ctx.program_ast
    covered_fields = {f for _cls, f in dead.dead_fields}
    covered_statics = {f"{cls}.{f}" for cls, f in dead.dead_statics}
    covered_lines = {(cls, sig[0]) for cls, sig in dead.array_store_sigs}
    findings = []
    for store in hl.dead_heap_stores():
        if store.token in covered_fields or store.token in covered_statics:
            continue
        if (store.class_name, store.line) in covered_lines:
            continue
        decl = program.find_class(store.class_name)
        member = (
            _member_of_line(decl, store.line) if decl is not None else store.method_name
        )
        kind = "array-element region" if store.token.endswith("[]") else "heap path"
        result.add(
            Diagnostic(
                DRAG006,
                SourceSpan(store.class_name, member, store.line),
                f"store into {kind} {store.token!r} at "
                f"{store.class_name}.{member}:{store.line} is never "
                "observably read through any live access path; the "
                f"stored {'/'.join(store.value_classes) or 'value'} is "
                "only pinned, never used",
                suggestion="rewrite the store to null (keeps all side "
                "effects and allocations, drops the pin)",
                subject=("heap-store", store.class_name, store.token, store.line),
                extra={
                    "token": store.token,
                    "value_classes": list(store.value_classes),
                    "alt_labels": list(store.pinned_labels),
                    "explain": store.explain,
                },
            )
        )
        findings.append(store)
    return findings


def _pass_drag007(ctx: AnalysisContext, result: LintResult):
    """Droppable container entries: pattern-4 pinning fields whose
    access paths all die before their container does."""
    hl = ctx.heap_liveness
    findings = []
    for entry in hl.droppable_entries():
        result.add(
            Diagnostic(
                DRAG007,
                SourceSpan(entry.class_name, entry.method_name, entry.lines[0]),
                f"{entry.var_name}.{entry.field} keeps "
                f"{entry.owner_class}.{entry.field}'s contents reachable, "
                "but every heap access path through it is dead after "
                f"line {entry.lines[0]} (last use {entry.last_use}); "
                "the container outlives its entries",
                suggestion=f"insert {entry.var_name}.{entry.field} = null; "
                f"after line {entry.lines[0]}",
                subject=(
                    "heap-field",
                    entry.owner_class,
                    entry.field,
                    entry.class_name,
                    entry.method_name,
                    entry.var_name,
                ),
                extra={
                    "insertion": {
                        "class_name": entry.class_name,
                        "method_name": entry.method_name,
                        "var_name": entry.var_name,
                        "owner_class": entry.owner_class,
                        "field_name": entry.field,
                        "lines": list(entry.lines),
                    },
                    "last_use": entry.last_use,
                    "alt_labels": list(entry.pinned_labels),
                    "explain": entry.explain,
                },
            )
        )
        findings.append(entry)
    return findings


#: DRAG008 fires only on containers retaining at least this share of
#: the reachable heap (dominator-tree retained size / total reachable).
DRAG008_MIN_SHARE = 0.02

#: At most this many retained-container diagnostics per run.
DRAG008_MAX_FINDINGS = 5


def _holder_locals(program: ast.Program, owner_class: str):
    """``(class_name, method_name, var_name, last_mention_line)`` for
    every non-library method local declared with type ``owner_class`` —
    the program points where a dominating reference can be cut."""
    out = []
    for cls in program.classes:
        if cls.is_library:
            continue
        for method in cls.methods:
            if method.body is None:
                continue
            for node in method.body.walk():
                if (
                    isinstance(node, ast.VarDecl)
                    and isinstance(node.type, ast.ClassType)
                    and node.type.name == owner_class
                ):
                    var = node.name
                    last = node.pos.line if node.pos is not None else 0
                    for use in method.body.walk():
                        if (
                            isinstance(use, ast.Name)
                            and use.ident == var
                            and use.pos is not None
                        ):
                            last = max(last, use.pos.line)
                    out.append((cls.name, method.name, var, last))
    return out


def _pass_drag008(ctx: AnalysisContext, result: LintResult):
    """High-retained containers: dominator-tree retained sizes from a
    heap snapshot, correlated with profile drag.

    Evidence-driven like DRAG007, but from *dynamic* evidence: the
    caller attaches a ``repro.snapshot.SnapshotAnalysis`` (and
    optionally a ``DragAnalysis``) to the context; without one this
    pass is silent, so static-only lint runs are unchanged. Each
    finding names the dominating reference ``owner.field`` whose cut
    releases the retained subtree and carries the same ``insertion``
    payload as DRAG007, so the assign-null-heap-field applier (and the
    RetainerCutPlanner) can act on it directly.
    """
    analysis = ctx.snapshot
    if analysis is None:
        return []
    drag = ctx.drag
    total = analysis.total_reachable_bytes
    if total <= 0:
        return []
    # Candidate cuts: (owner_class, field) -> (retained, subject node).
    # A top retainer dominated by a heap object contributes its own
    # dominating reference; one held directly by a root local (no heap
    # owner) contributes each field edge to a dominator-tree child —
    # cutting `holder.field` after the holder's last use frees that
    # child's subtree.
    candidates: Dict[tuple, tuple] = {}

    def consider(owner_class: str, field: str, subject: int) -> None:
        retained = analysis.retained[subject]
        if retained / total < DRAG008_MIN_SHARE:
            return
        key = (owner_class, field)
        if key not in candidates or candidates[key][0] < retained:
            candidates[key] = (retained, subject)

    for node_index in analysis.top_retained(limit=2 * DRAG008_MAX_FINDINGS):
        node = analysis.nodes[node_index]
        domref = analysis.dominating_reference(node_index)
        if domref is not None and domref[0] != 0:
            consider(analysis.nodes[domref[0]].type_name, domref[1], node_index)
        elif domref is not None:
            for dst, label in node.edges:
                if (
                    label is not None
                    and label != "[]"
                    and analysis.tree.idom[dst] == node_index
                ):
                    consider(node.type_name, label, dst)

    findings = []
    ranked = sorted(
        candidates.items(), key=lambda item: (-item[1][0], item[0])
    )
    for (owner_class, field), (retained, subject) in ranked:
        if len(findings) >= DRAG008_MAX_FINDINGS:
            break
        pinned = (
            analysis.pinned_drag_sites(subject, drag) if drag is not None else []
        )
        if drag is not None and not pinned:
            continue
        holders = _holder_locals(ctx.program_ast, owner_class)
        if not holders:
            continue
        class_name, method_name, var_name, last_line = holders[0]
        subject_node = analysis.nodes[subject]
        share = retained / total
        message = (
            f"{owner_class}.{field} dominates {subject_node.type_name}"
            + (f" @ {subject_node.site_label}" if subject_node.site_label else "")
            + f", retaining {retained} bytes ({100.0 * share:.1f}% of the "
            f"reachable heap)"
        )
        if pinned:
            top_site, top_drag, top_bytes = pinned[0]
            message += (
                f"; it pins dragged site {top_site} "
                f"({top_bytes} bytes retained, drag {top_drag:.0f})"
            )
        result.add(
            Diagnostic(
                DRAG008,
                SourceSpan(class_name, method_name, last_line),
                message,
                suggestion=f"insert {var_name}.{field} = null; after line "
                f"{last_line} (the holder's last use) and verify",
                subject=(
                    "retained-container",
                    owner_class,
                    field,
                    class_name,
                    method_name,
                    var_name,
                ),
                extra={
                    "insertion": {
                        "class_name": class_name,
                        "method_name": method_name,
                        "var_name": var_name,
                        "owner_class": owner_class,
                        "field_name": field,
                        "lines": [last_line],
                    },
                    "retained_bytes": retained,
                    "retained_share": share,
                    "chain": analysis.retainer_chain(subject),
                    "pinned_sites": [
                        {"site": s, "est_drag": d, "retained_bytes": b}
                        for s, d, b in pinned[:3]
                    ],
                },
            )
        )
        findings.append((owner_class, field, retained))
    return findings


#: rule id -> pass name
RULE_PASSES = {
    "DRAG001": "rule-never-used-allocation",
    "DRAG002": "rule-droppable-reference",
    "DRAG003": "rule-lazy-allocation-candidate",
    "DRAG004": "rule-unreachable-method",
    "DRAG005": "rule-oversized-array",
    "DRAG006": "rule-dead-heap-path",
    "DRAG007": "rule-droppable-container-entry",
    "DRAG008": "rule-high-retained-container",
}


def standard_pass_manager(context: AnalysisContext, telemetry=None) -> PassManager:
    """The default pipeline: shared analyses plus one pass per rule."""
    manager = PassManager(context, telemetry=telemetry)
    manager.register(Pass("callgraph", _pass_callgraph))
    manager.register(Pass("exceptions", _pass_exceptions, requires=("callgraph",)))
    manager.register(Pass("interproc-use", _pass_interproc, requires=("callgraph", "exceptions")))
    manager.register(
        Pass(RULE_PASSES["DRAG001"], _pass_drag001,
             requires=("interproc-use",), rule_id="DRAG001")
    )
    manager.register(
        Pass(RULE_PASSES["DRAG002"], _pass_drag002,
             requires=("interproc-use",), rule_id="DRAG002")
    )
    manager.register(
        Pass(RULE_PASSES["DRAG003"], _pass_drag003,
             requires=("interproc-use", "exceptions"), rule_id="DRAG003")
    )
    manager.register(
        Pass(RULE_PASSES["DRAG004"], _pass_drag004,
             requires=("callgraph",), rule_id="DRAG004")
    )
    manager.register(
        Pass(RULE_PASSES["DRAG005"], _pass_drag005,
             requires=("callgraph",), rule_id="DRAG005")
    )
    manager.register(Pass("heap-liveness", _pass_heap_liveness))
    manager.register(
        Pass(RULE_PASSES["DRAG006"], _pass_drag006,
             requires=("heap-liveness", "interproc-use"), rule_id="DRAG006")
    )
    manager.register(
        Pass(RULE_PASSES["DRAG007"], _pass_drag007,
             requires=("heap-liveness",), rule_id="DRAG007")
    )
    manager.register(
        Pass(RULE_PASSES["DRAG008"], _pass_drag008, rule_id="DRAG008")
    )
    return manager
