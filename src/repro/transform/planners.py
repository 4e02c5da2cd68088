"""Patch planners: one per §3.3 transformation strategy.

A planner looks at a profile drag group (already classified into a
§3.4 lifetime pattern), joins it with the lint diagnostics that
justify the rewrite (DRAG001 for dead code, DRAG003 for lazy
allocation, DRAG002 for droppable references), and emits
:class:`~repro.transform.patch.Patch` objects — or
:class:`~repro.transform.patch.PlannedSkip` entries naming why the
site was declined. No planner touches the AST: application is
:mod:`repro.transform.apply`'s job.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.array_liveness import logical_size_pairs
from repro.analysis.liveness import null_insertion_candidates
from repro.analysis.usage import field_target_name
from repro.core.patterns import LifetimePattern
from repro.mjava import ast
from repro.transform.patch import Patch, PlannedSkip

PlanEntry = Union[Patch, PlannedSkip]


class PlanningContext:
    """Everything one planning cycle sees: the program, the shared lint
    :class:`~repro.lint.passes.AnalysisContext`, the lint findings, the
    phase-1 profile and its drag analysis — plus the cross-strategy
    dedup sets (one lazy rewrite per field, one array-clear per class)."""

    __slots__ = (
        "program_ast",
        "main_class",
        "context",
        "lint",
        "profile",
        "analysis",
        "interval_bytes",
        "top",
        "min_drag_share",
        "lazy_done",
        "arrays_done",
        "heap_done",
        "heap_cover",
    )

    def __init__(
        self,
        program_ast: ast.Program,
        main_class: str,
        context,
        lint,
        profile,
        analysis,
        interval_bytes: int,
        top: int,
        min_drag_share: float,
    ) -> None:
        self.program_ast = program_ast
        self.main_class = main_class
        self.context = context
        self.lint = lint
        self.profile = profile
        self.analysis = analysis
        self.interval_bytes = interval_bytes
        self.top = top
        self.min_drag_share = min_drag_share
        self.lazy_done: Set[Tuple[str, str]] = set()
        self.arrays_done: Set[str] = set()
        self.heap_done: Set[Tuple[str, ...]] = set()
        # Allocation-site labels the heap planner's patches pin-release;
        # plan_group uses it to explain pattern-4 coverage.
        self.heap_cover: Set[str] = set()


# -- shared frame/AST helpers -----------------------------------------------


def parse_frame(label: str) -> Tuple[str, str, int]:
    """'Class.method:line' -> (class, method, line)."""
    left, _, line = label.rpartition(":")
    cls, _, method = left.partition(".")
    return cls, method, int(line)


def span_of_frame(label: str):
    from repro.lint.diagnostics import SourceSpan

    try:
        cls, method, line = parse_frame(label)
    except ValueError:
        return None  # e.g. the profiler's "<unknown>" site label
    return SourceSpan(cls, method, line)


def anchor_of(profile, group) -> Optional[str]:
    """The §3.4 anchor allocation site of a drag group."""
    from repro.core.anchor import anchor_site

    return anchor_site(group, profile.program)


def ctor_assigned_field(
    program_ast: ast.Program, class_name: str, line: int
) -> Optional[str]:
    """The field assigned at ``line`` of a constructor (or field
    initializer) of ``class_name``, if any."""
    cls = program_ast.find_class(class_name)
    if cls is None:
        return None
    for ctor in cls.ctors:
        for node in ctor.body.walk():
            if isinstance(node, ast.Assign) and node.pos.line == line:
                name = field_target_name(node.target)
                if name is not None:
                    return name
    for field in cls.fields:
        if field.pos.line == line and field.init is not None:
            return field.name
    return None


def local_assigned_at(
    program_ast: ast.Program, class_name: str, method_name: str, line: int
) -> Optional[str]:
    """The local variable assigned at ``line`` of a method, if any."""
    cls = program_ast.find_class(class_name)
    if cls is None:
        return None
    for method in cls.methods:
        if method.name != method_name or method.body is None:
            continue
        for node in method.body.walk():
            if node.pos.line != line:
                continue
            if isinstance(node, ast.VarDecl) and node.init is not None:
                return node.name
            if isinstance(node, ast.Assign) and isinstance(node.target, ast.Name):
                local_names = {
                    n.name for n in method.body.walk() if isinstance(n, ast.VarDecl)
                } | {p.name for p in method.params}
                if node.target.ident in local_names:
                    return node.target.ident
    return None


def insertion_lines(compiled, class_name: str, method_name: str, var: str) -> List[int]:
    """Liveness-safe lines after which ``var = null`` may go."""
    cls = compiled.classes.get(class_name)
    if cls is None or method_name not in cls.methods:
        return []
    return null_insertion_candidates(cls.methods[method_name], var)


def _refs(diags) -> Tuple[str, ...]:
    return tuple(d.ref for d in diags)


# -- the strategies ---------------------------------------------------------


class Transformation:
    """The planner protocol: ``plan_program`` runs once per cycle
    (program-wide strategies), ``plan_group`` once per drag group whose
    lifetime pattern is in :attr:`patterns`."""

    name = "?"
    patterns: Sequence[LifetimePattern] = ()

    def plan_program(self, pctx: PlanningContext) -> List[PlanEntry]:
        return []

    def plan_group(
        self, pctx: PlanningContext, group, pattern: LifetimePattern
    ) -> List[PlanEntry]:
        return []


class DeadCodePlanner(Transformation):
    """§3.3.2 pattern 1: every never-used site at once, candidates from
    the lint core's interprocedural must-use analysis (DRAG001)."""

    name = "dead-code-removal"
    patterns = ()  # program-wide; ALL_NEVER_USED groups are its evidence

    def plan_program(self, pctx: PlanningContext) -> List[PlanEntry]:
        never_used = pctx.analysis.never_used_sites()
        if not never_used:
            return []
        top_sites = never_used[: pctx.top]
        drag = sum(g.total_drag for g in never_used)
        return [
            Patch(
                strategy=self.name,
                kind="remove-dead-allocations",
                params={
                    "main_class": pctx.main_class,
                    "sites": [g.key for g in top_sites],
                },
                span=span_of_frame(str(top_sites[0].key)),
                site=top_sites[0].key,
                pattern=LifetimePattern.ALL_NEVER_USED,
                drag=drag,
                rationale=(
                    f"{len(never_used)} allocation site(s) whose objects are "
                    "all never used (§2.2 'a sure bet for code rewriting'); "
                    "removal candidates proven by the DRAG001 analyses"
                ),
                diagnostics=_refs(pctx.lint.by_rule("DRAG001")),
                replacement="delete never-used allocating stores and initializers",
                priority=0,  # schedule before per-site patches, as §3.4 does
            )
        ]


class LazyAllocPlanner(Transformation):
    """§3.3.3 pattern 2: constructor-assigned field, lazily allocated
    behind a null-check accessor (gated by a DRAG003 finding)."""

    name = "lazy-allocation"
    patterns = (LifetimePattern.MOSTLY_NEVER_USED,)

    def plan_group(
        self, pctx: PlanningContext, group, pattern: LifetimePattern
    ) -> List[PlanEntry]:
        anchor = anchor_of(pctx.profile, group)
        if anchor is None:
            return [PlannedSkip(group.key, pattern, self.name, "no application anchor frame")]
        cls_name, _method, line = parse_frame(anchor)
        field = ctor_assigned_field(pctx.program_ast, cls_name, line)
        if field is None:
            return [
                PlannedSkip(
                    group.key, pattern, self.name,
                    f"anchor {anchor} is not a ctor field assignment",
                )
            ]
        if (cls_name, field) in pctx.lazy_done:
            return []
        diags = pctx.lint.find("DRAG003", "field", cls_name, field)
        if not diags:
            return [
                PlannedSkip(
                    group.key, pattern, self.name,
                    f"{cls_name}.{field} is not a static lazy-allocation "
                    "candidate (no DRAG003 finding)",
                )
            ]
        pctx.lazy_done.add((cls_name, field))
        return [
            Patch(
                strategy=self.name,
                kind="lazy-alloc-field",
                params={
                    "class_name": cls_name,
                    "field_name": field,
                    "main_class": pctx.main_class,
                },
                span=diags[0].span,
                site=group.key,
                pattern=pattern,
                drag=group.total_drag,
                rationale=(
                    f"anchor {anchor}: mostly-never-used objects held by "
                    f"ctor-assigned field {cls_name}.{field}; DRAG003 proves "
                    "the lazy-allocation preconditions"
                ),
                diagnostics=_refs(diags[:1]),
                replacement=f"reads of {field} go through lazyInit_{field}() null-check accessor",
            )
        ]


class AssignNullPlanner(Transformation):
    """§3.3.1 pattern 3: drop a dead reference — the §5.2 logical-size
    array case first (DRAG002 array findings), else ``v = null`` after a
    liveness-proven last use of the anchor method's local."""

    name = "assign-null"
    patterns = (LifetimePattern.LARGE_DRAG,)

    def plan_group(
        self, pctx: PlanningContext, group, pattern: LifetimePattern
    ) -> List[PlanEntry]:
        # Case A: objects last used inside a class with a verified
        # logical-size (array, count) pair — clear the removed slot.
        table = pctx.context.table
        for use_group in sorted(
            group.partition_by_last_use().values(), key=lambda g: -g.total_drag
        ):
            if use_group.key[1] is None:
                continue
            use_cls, _, _ = parse_frame(use_group.key[1])
            if use_cls in pctx.arrays_done or not table.has(use_cls):
                continue
            diags = pctx.lint.find("DRAG002", "array", use_cls)
            if not diags:
                continue
            pairs = logical_size_pairs(table, use_cls)
            if pairs:
                pctx.arrays_done.add(use_cls)
                return [
                    Patch(
                        strategy=self.name,
                        kind="clear-array-slot",
                        params={"class_name": use_cls},
                        span=diags[0].span,
                        site=group.key,
                        pattern=pattern,
                        drag=group.total_drag,
                        rationale=(
                            f"dragged objects' last use is in {use_cls}, which "
                            f"has verified logical-size pair(s) {pairs} (§5.2 "
                            "array liveness; DRAG002)"
                        ),
                        diagnostics=_refs(diags[:1]),
                        replacement="null the array slot after each logical removal",
                    )
                ]
        # Case B: the allocation is held by a local of the anchor method.
        anchor = anchor_of(pctx.profile, group)
        if anchor is None:
            return [PlannedSkip(group.key, pattern, self.name, "no anchor frame in application code")]
        a_cls, a_method, a_line = parse_frame(anchor)
        var = local_assigned_at(pctx.program_ast, a_cls, a_method, a_line)
        if var is None:
            return [
                PlannedSkip(
                    group.key, pattern, self.name,
                    f"no local variable assigned at {anchor}",
                )
            ]
        candidates = [
            line
            for line in insertion_lines(pctx.profile.program, a_cls, a_method, var)
            if line >= a_line
        ]
        if not candidates:
            return [
                PlannedSkip(
                    group.key, pattern, self.name,
                    f"no liveness-safe nulling point for {var} in {a_cls}.{a_method}",
                )
            ]
        diags = pctx.lint.find("DRAG002", "local", a_cls, a_method, var)
        span = diags[0].span if diags else span_of_frame(anchor)
        return [
            Patch(
                strategy=self.name,
                kind="assign-null-local",
                params={
                    "class_name": a_cls,
                    "method_name": a_method,
                    "var_name": var,
                    # Try the earliest liveness-safe lines in order; the
                    # applier keeps the first whose AST scope also allows it.
                    "lines": tuple(candidates[:5]),
                },
                span=span,
                site=group.key,
                pattern=pattern,
                drag=group.total_drag,
                rationale=(
                    f"anchor {anchor}: large-drag objects held by local "
                    f"{var}; §5.1 liveness proves the slot dead after "
                    f"line(s) {list(candidates[:5])}"
                ),
                diagnostics=_refs(diags[:1]),
                replacement=f"{var} = null;",
            )
        ]


def _field_already_nulled(
    program_ast: ast.Program, class_name: str, method_name: str, var: str, field: str
) -> bool:
    """Does the method already contain ``var.field = null;``? (makes
    re-planning across pipeline cycles idempotent)."""
    cls = program_ast.find_class(class_name)
    if cls is None:
        return False
    bodies = (
        [c.body for c in cls.ctors]
        if method_name == "<init>"
        else [m.body for m in cls.methods if m.name == method_name and m.body is not None]
    )
    for body in bodies:
        for node in body.walk():
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.NullLit)
                and isinstance(node.target, ast.FieldAccess)
                and node.target.name == field
                and isinstance(node.target.target, ast.Name)
                and node.target.target.ident == var
            ):
                return True
    return False


def _field_accessible(
    program_ast: ast.Program, owner_class: str, field: str, from_class: str
) -> bool:
    """Can ``from_class`` legally write ``owner.field``? Mirrors the
    compiler's visibility check: private fields are writable only from
    their declaring class."""
    name = owner_class
    while name:
        cls = program_ast.find_class(name)
        if cls is None:
            return False
        for decl in cls.fields:
            if decl.name == field:
                return decl.mods.visibility != "private" or name == from_class
        name = cls.superclass
    return False


def _side_effect_free_store(program_ast: ast.Program, class_name: str, line: int) -> bool:
    """Is there an assignment at (class, line) whose RHS is safe to
    replace with ``null``: side-effect-free AND non-allocating (so the
    byte clock — and hence every other object's drag — is untouched)?"""
    from repro.transform.apply import _null_safe_rhs

    cls = program_ast.find_class(class_name)
    if cls is None:
        return False
    bodies = [c.body for c in cls.ctors] + [
        m.body for m in cls.methods if m.body is not None
    ]
    for body in bodies:
        for node in body.walk():
            if (
                isinstance(node, ast.Assign)
                and node.pos.line == line
                and not isinstance(node.value, ast.NullLit)
                and _null_safe_rhs(node.value)
            ):
                return True
    return False


def _heap_field_null_patches(pctx: PlanningContext, rule_id: str, strategy: str, limit: int, rationale):
    """``(diagnostic, patch)`` pairs: one ``assign-null-heap-field``
    patch per DRAG007/DRAG008 finding whose ``insertion`` payload names
    a field the holder's method may write and has not already nulled,
    at most ``limit``. Every key seen is recorded in ``pctx.heap_done``
    so no two findings (or strategies) plan the same cut."""
    out = []
    for diag in pctx.lint.by_rule(rule_id):
        if len(out) >= limit:
            break
        ins = diag.extra.get("insertion") or {}
        key = (
            ins.get("class_name"),
            ins.get("method_name"),
            ins.get("var_name"),
            ins.get("field_name"),
        )
        if None in key or key in pctx.heap_done or not ins.get("lines"):
            continue
        pctx.heap_done.add(key)
        owner = ins.get("owner_class")
        if (
            owner is None
            or not _field_accessible(pctx.program_ast, owner, key[3], key[0])
            or _field_already_nulled(pctx.program_ast, *key)
        ):
            continue
        cls_name, method_name, var, field = key
        patch = Patch(
            strategy=strategy,
            kind="assign-null-heap-field",
            params={
                "class_name": cls_name,
                "method_name": method_name,
                "var_name": var,
                "field_name": field,
                "lines": tuple(ins["lines"]),
            },
            span=diag.span,
            site=diag.span.label,
            pattern=LifetimePattern.HIGH_VARIANCE,
            drag=diag.drag or 0,
            rationale=rationale(diag, ins),
            diagnostics=_refs([diag]),
            replacement=f"{var}.{field} = null;",
        )
        out.append((diag, patch))
    return out


class HeapAssignNullPlanner(Transformation):
    """§3.4 pattern 4 via heap liveness: null heap fields / container
    entries whose access paths the access-graph analysis proves dead.

    Unlike the other planners this one is evidence-driven from static
    findings (DRAG006/DRAG007), not from a profile group: the whole
    point of pattern 4 is that per-site drag alone cannot justify a
    rewrite. ``plan_group`` therefore only *explains* HIGH_VARIANCE
    groups (covered or genuinely untransformable); patches come from
    ``plan_program``."""

    name = "heap-assign-null"
    patterns = (LifetimePattern.HIGH_VARIANCE,)

    #: At most this many field-null insertions per program per cycle.
    MAX_FIELD_PATCHES = 3

    def plan_program(self, pctx: PlanningContext) -> List[PlanEntry]:
        if pctx.lint is None:
            return []
        entries: List[PlanEntry] = []
        heap = getattr(pctx.context, "heap_liveness", None)
        if heap is not None and heap.degraded:
            return []
        # -- DRAG007: var.field = null after the container's last use --
        def rationale(diag, ins):
            return (
                f"heap liveness proves every access path through "
                f"{ins['var_name']}.{ins['field_name']} dead after line "
                f"{ins['lines'][0]} (last use "
                f"{diag.extra.get('last_use', '<unknown>')}); "
                "nulling the field releases what it pins (DRAG007)"
            )

        for diag, patch in _heap_field_null_patches(
            pctx, "DRAG007", self.name, self.MAX_FIELD_PATCHES, rationale
        ):
            pctx.heap_cover.update(diag.extra.get("alt_labels", ()))
            entries.append(patch)
        # -- DRAG006: rewrite dead heap stores to store null -----------
        stores: List[Tuple[str, int]] = []
        store_diags = []
        for diag in pctx.lint.by_rule("DRAG006"):
            cls_name = diag.span.class_name
            line = diag.span.line
            if ("store", cls_name, line) in pctx.heap_done:
                continue
            if not _side_effect_free_store(pctx.program_ast, cls_name, line):
                continue
            pctx.heap_done.add(("store", cls_name, line))
            pctx.heap_cover.update(diag.extra.get("alt_labels", ()))
            stores.append((cls_name, line))
            store_diags.append(diag)
        if stores:
            top = store_diags[0]
            entries.append(
                Patch(
                    strategy=self.name,
                    kind="null-dead-heap-store",
                    params={"stores": tuple(stores)},
                    span=top.span,
                    site=top.span.label,
                    pattern=LifetimePattern.HIGH_VARIANCE,
                    drag=sum(d.drag or 0 for d in store_diags),
                    rationale=(
                        f"{len(stores)} store(s) fill heap path(s) "
                        f"{sorted({d.extra.get('token', '?') for d in store_diags})} "
                        "that no live access path ever reads; storing null "
                        "keeps every side effect and allocation (DRAG006)"
                    ),
                    diagnostics=_refs(store_diags),
                    replacement="store null instead of the (still-evaluated) value",
                )
            )
        return entries

    def plan_group(
        self, pctx: PlanningContext, group, pattern: LifetimePattern
    ) -> List[PlanEntry]:
        covered = sorted(
            {frame for frame in _group_frames(group) if frame in pctx.heap_cover}
        )
        if covered:
            return [
                PlannedSkip(
                    group.key, pattern, self.name,
                    "pattern-4 drag released by heap-level patch(es) "
                    f"covering {', '.join(covered[:3])}",
                )
            ]
        return [
            PlannedSkip(
                group.key, pattern, self.name,
                "high-variance last uses and no dead heap path through "
                "the holder (§3.4 pattern 4: the exact queries cannot be "
                "predicted)",
            )
        ]


class RetainerCutPlanner(Transformation):
    """Snapshot-driven pattern 4: cut the dominating reference.

    Consumes DRAG008 (high-retained-container) findings, which carry
    the same ``insertion`` payload as DRAG007 — so the proven
    ``assign-null-heap-field`` applier does the edit. The evidence is
    *dynamic* (a dominator tree over a captured heap says exactly what
    the cut releases) rather than a static liveness proof, so these
    patches lean entirely on differential verification: stdout must be
    identical and drag non-increasing, or the pipeline rolls back.

    Not part of :func:`default_strategies` — the pipeline appends it
    only when snapshot capture is enabled (``snapshot=True``), keeping
    the static-only plan unchanged.
    """

    name = "retainer-cut"
    patterns = (LifetimePattern.HIGH_VARIANCE,)

    #: At most this many dominating-reference cuts per program per cycle.
    MAX_CUT_PATCHES = 3

    def plan_program(self, pctx: PlanningContext) -> List[PlanEntry]:
        if pctx.lint is None:
            return []

        def rationale(diag, ins):
            retained = diag.extra.get("retained_bytes", 0)
            share = diag.extra.get("retained_share", 0.0)
            return (
                f"snapshot dominator tree: {ins['owner_class']}.{ins['field_name']} "
                f"retains {retained} bytes ({100.0 * share:.1f}% of the "
                f"reachable heap) past {ins['var_name']}'s last use; cutting "
                "the dominating reference releases the subtree (DRAG008, "
                "differentially verified)"
            )

        return [
            patch
            for _diag, patch in _heap_field_null_patches(
                pctx, "DRAG008", self.name, self.MAX_CUT_PATCHES, rationale
            )
        ]


def _group_frames(group) -> Tuple[str, ...]:
    key = group.key
    if isinstance(key, tuple):
        out = []
        for part in key:
            if isinstance(part, tuple):
                out.extend(str(p) for p in part)
            else:
                out.append(str(part))
        return tuple(out)
    return (str(key),)


def default_strategies() -> List[Transformation]:
    return [DeadCodePlanner(), LazyAllocPlanner(), AssignNullPlanner(), HeapAssignNullPlanner()]
