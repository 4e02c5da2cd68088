"""Pure patch application: ``apply_patches(program, patches) -> program``.

Every program rewrite lives here, one applier per
:class:`~repro.transform.patch.Patch` kind in :data:`APPLIERS`:

* assigning null to a dead reference (§3.3.1) — a local after its
  §5.1 liveness-proven last use (``assign-null-local``), the §5.2
  logical-size array slot after each removal (``clear-array-slot``),
  and the heap-liveness variants (``assign-null-heap-field``,
  ``null-dead-heap-store``);
* dead-code removal of never-used allocations (§3.3.2,
  ``remove-dead-allocations``);
* lazy allocation of a constructor-initialized field (§3.3.3,
  ``lazy-alloc-field``).

An applier clones before rewriting, so applying never mutates the
input AST. It reads every analysis fact it needs — class table,
compiled program, call graph, thrown exceptions, never-used candidates
— from an :class:`~repro.lint.passes.AnalysisContext` over the program
being rewritten, and checks its static precondition on that program.
It either returns ``(revised_program, detail)`` or raises
:class:`~repro.errors.TransformError` — the pipeline records that as a
failed outcome and moves on.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.analysis.array_liveness import logical_size_pairs, removal_points
from repro.analysis.lazy_points import lazy_allocation_gates
from repro.analysis.liveness import null_insertion_blocker
from repro.analysis.usage import field_target_name, is_removal_pure_expr, stmt_signature
from repro.errors import ReproError, SourcePosition, TransformError
from repro.mjava import ast
from repro.mjava.compiler import compile_program
from repro.transform.patch import Patch
from repro.transform.rewriter import (
    clone_node,
    clone_program,
    find_class,
    find_method,
    rewrite_block,
    rewrite_exprs_in_stmt,
)

# (program, patch, AnalysisContext over program) -> (revised, detail)
Applier = Callable[[ast.Program, Patch, object], Tuple[ast.Program, str]]

APPLIERS: Dict[str, Applier] = {}


def register_applier(kind: str) -> Callable[[Applier], Applier]:
    def decorate(fn: Applier) -> Applier:
        APPLIERS[kind] = fn
        return fn

    return decorate


def apply_patch(
    program: ast.Program, patch: Patch, context=None
) -> Tuple[ast.Program, str]:
    """Apply one patch; returns (revised program, human detail).
    ``context`` is a :class:`~repro.lint.passes.AnalysisContext` over
    ``program``; one is built when omitted."""
    applier = APPLIERS.get(patch.kind)
    if applier is None:
        raise TransformError(f"no applier for patch kind {patch.kind!r}")
    if context is None:
        from repro.lint.passes import AnalysisContext

        context = AnalysisContext(program, patch.params.get("main_class"))
    return applier(program, patch, context)


def apply_patches(program: ast.Program, patches) -> ast.Program:
    """Apply a sequence of patches in order, purely: the input program
    is never mutated and each patch sees its predecessors' output. A
    patch whose precondition fails on the evolving AST raises
    :class:`TransformError` (use the pipeline for record-and-continue
    semantics)."""
    current = program
    for patch in patches:
        current, _ = apply_patch(current, patch)
    return current


# -- shared rewriting steps ---------------------------------------------------


def _insert_after_line(
    program: ast.Program,
    class_name: str,
    method_name: str,
    after_line: int,
    make_stmt: Callable[[SourcePosition], ast.Stmt],
) -> ast.Program:
    """Clone ``program`` and insert ``make_stmt(pos)`` after the first
    non-block statement at ``after_line`` of ``class_name.method_name``."""
    revised = clone_program(program)
    method = find_method(revised, class_name, method_name)
    if method.body is None:
        raise TransformError(f"no body for {class_name}.{method_name}")
    inserted = []

    def insert_after(stmt: ast.Stmt):
        if stmt.pos.line == after_line and not isinstance(stmt, ast.Block) and not inserted:
            inserted.append(stmt)
            return [stmt, make_stmt(stmt.pos)]
        return stmt

    rewrite_block(method.body, insert_after)
    if not inserted:
        raise TransformError(
            f"no statement at line {after_line} in {class_name}.{method_name}"
        )
    return revised


def _compile_gate(revised: ast.Program, failure: str) -> ast.Program:
    """Re-run the compiler on a rewrite: the appliers' semantic gate."""
    try:
        compile_program(revised)
    except ReproError as exc:
        raise TransformError(f"{failure}: {exc}")
    return revised


def _null_assign(target: ast.Expr, pos: SourcePosition) -> ast.Assign:
    return ast.Assign(target, ast.NullLit(pos=pos), pos=pos)


# -- §3.3.1: assigning null to dead references -------------------------------


@register_applier("assign-null-local")
def _apply_assign_null(
    program: ast.Program, patch: Patch, context
) -> Tuple[ast.Program, str]:
    """Insert ``var = null;`` after the first candidate line where §5.1
    liveness proves the slot dead and the AST scope still holds
    ``var``."""
    cls_name = patch.params["class_name"]
    method_name = patch.params["method_name"]
    var = patch.params["var_name"]
    compiled = context.compiled.classes.get(cls_name)
    if compiled is None or method_name not in compiled.methods:
        raise TransformError(f"no method {cls_name}.{method_name}")
    method = compiled.methods[method_name]
    last_error = None
    for line in patch.params["lines"]:
        try:
            blocker = null_insertion_blocker(method, var, line)
            if blocker is not None:
                raise TransformError(blocker)
            revised = _insert_after_line(
                program, cls_name, method_name, line,
                lambda pos: _null_assign(ast.Name(var, pos=pos), pos),
            )
            # Bytecode liveness is method-scoped but AST scoping is
            # narrower: the line may sit outside the declaring block.
            _compile_gate(revised, f"insertion after line {line} is out of {var}'s scope")
            return revised, f"{var} = null inserted after {cls_name}.{method_name}:{line}"
        except TransformError as exc:
            last_error = exc
    raise TransformError(
        str(last_error)
        if last_error is not None
        else f"no liveness-safe nulling point for {var} in {cls_name}.{method_name}"
    )


@register_applier("clear-array-slot")
def _apply_clear_array(
    program: ast.Program, patch: Patch, context
) -> Tuple[ast.Program, str]:
    """The §5.2 vector case: for each verified (array, count) pair of
    the class and each decrement of the count, rewrites::

        count = count - 1;            count = count - 1;
        return data[count];     =>    Object removed = data[count];
                                      data[count] = null;
                                      return removed;

    (or simply appends ``data[count] = null;`` when the next statement
    does not read the slot)."""
    cls_name = patch.params["class_name"]
    table = context.table
    pairs = logical_size_pairs(table, cls_name)
    if not pairs:
        raise TransformError(f"{cls_name} has no verified logical-size array")
    revised = clone_program(program)
    target_cls = find_class(revised, cls_name)

    for array_field, size_field in pairs:
        decrements = {
            stmt_signature(dec)
            for _, dec in removal_points(table, cls_name, (array_field, size_field))
        }

        def null_slot(pos: SourcePosition) -> ast.Assign:
            return _null_assign(
                ast.Index(ast.Name(array_field, pos=pos), ast.Name(size_field, pos=pos), pos=pos),
                pos,
            )

        def make_fixer(return_type: ast.Type):
            def fix_block(block: ast.Block) -> None:
                new_stmts = []
                i = 0
                stmts = block.stmts
                while i < len(stmts):
                    stmt = stmts[i]
                    _recurse_blocks(stmt, fix_block)
                    new_stmts.append(stmt)
                    if isinstance(stmt, ast.Assign) and stmt_signature(stmt) in decrements:
                        nxt = stmts[i + 1] if i + 1 < len(stmts) else None
                        if (
                            isinstance(nxt, ast.Return)
                            and isinstance(nxt.value, ast.Index)
                            and field_target_name(nxt.value.array) == array_field
                            and field_target_name(nxt.value.index) == size_field
                        ):
                            pos = nxt.pos
                            new_stmts.append(
                                ast.VarDecl(return_type, "removedElement_", nxt.value, pos=pos)
                            )
                            new_stmts.append(null_slot(pos))
                            new_stmts.append(
                                ast.Return(ast.Name("removedElement_", pos=pos), pos=pos)
                            )
                            i += 2
                            continue
                        new_stmts.append(null_slot(stmt.pos))
                    i += 1
                block.stmts = new_stmts

            return fix_block

        for ctor in target_cls.ctors:
            make_fixer(ast.OBJECT)(ctor.body)
        for method in target_cls.methods:
            if method.body is not None:
                make_fixer(method.return_type)(method.body)
    return revised, f"array liveness: cleared slots of {pairs} in {cls_name}"


def _recurse_blocks(stmt: ast.Stmt, fix_block) -> None:
    if isinstance(stmt, ast.Block):
        fix_block(stmt)
    elif isinstance(stmt, ast.If):
        _recurse_blocks(stmt.then, fix_block)
        if stmt.otherwise is not None:
            _recurse_blocks(stmt.otherwise, fix_block)
    elif isinstance(stmt, (ast.While, ast.For)):
        _recurse_blocks(stmt.body, fix_block)
    elif isinstance(stmt, ast.Try):
        fix_block(stmt.body)
        for clause in stmt.catches:
            fix_block(clause.body)
    elif isinstance(stmt, ast.Synchronized):
        fix_block(stmt.body)


@register_applier("assign-null-heap-field")
def _apply_heap_field_null(
    program: ast.Program, patch: Patch, context
) -> Tuple[ast.Program, str]:
    """DRAG007/DRAG008: insert ``var.field = null;`` after the first
    insertion line that carries a statement — the heap liveness
    analysis (or the snapshot's dominator tree) names every candidate."""
    cls_name = patch.params["class_name"]
    method = patch.params["method_name"]
    var = patch.params["var_name"]
    field = patch.params["field_name"]
    lines = list(patch.params["lines"])
    if not lines:
        raise TransformError(f"no insertion line for {var}.{field} in {cls_name}.{method}")
    last_error: Optional[TransformError] = None
    for line in lines:
        try:
            revised = _insert_after_line(
                program, cls_name, method, line,
                lambda pos: _null_assign(
                    ast.FieldAccess(ast.Name(var, pos=pos), field, pos=pos), pos
                ),
            )
        except TransformError as exc:
            last_error = exc
            continue
        return (
            _compile_gate(revised, "revision does not compile"),
            f"{var}.{field} = null inserted after {cls_name}.{method}:{line}",
        )
    raise TransformError(str(last_error))


def _null_safe_rhs(expr: ast.Expr) -> bool:
    """May ``expr`` be replaced by ``null`` without observable effect
    beyond the stored reference? True only for expressions that cannot
    throw, cannot allocate (the byte clock is untouched, so every other
    object's drag measurement is preserved), and have no side effects.
    Deliberately tighter than "side-effect-free": ``x.f`` off a local
    may NPE and a string literal allocates, so both are excluded."""
    if isinstance(expr, (ast.Name, ast.This, ast.IntLit, ast.CharLit, ast.BoolLit, ast.NullLit)):
        return True
    if isinstance(expr, ast.FieldAccess):
        return isinstance(expr.target, ast.This)
    return False


@register_applier("null-dead-heap-store")
def _apply_null_dead_store(
    program: ast.Program, patch: Patch, context
) -> Tuple[ast.Program, str]:
    """DRAG006: keep each flagged store (and everything it evaluates)
    but store ``null`` instead of the reference, so the heap path stops
    pinning objects nothing will read. Only rewrites assignments whose
    RHS passes :func:`_null_safe_rhs`."""
    stores = list(patch.params["stores"])
    revised = clone_program(program)
    rewritten = 0
    for cls_name, line in stores:
        cls = revised.find_class(cls_name)
        if cls is None:
            continue
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
                    node.value = ast.NullLit(pos=node.value.pos)
                    rewritten += 1
    if not rewritten:
        raise TransformError(
            f"no rewritable dead heap store at {[f'{c}:{l}' for c, l in stores]}"
        )
    return (
        _compile_gate(revised, "revision does not compile"),
        f"{rewritten} dead heap store(s) now store null",
    )


# -- §3.3.2: dead-code removal of never-used allocations ---------------------


@register_applier("remove-dead-allocations")
def _apply_remove_dead(
    program: ast.Program, patch: Patch, context
) -> Tuple[ast.Program, str]:
    """Program-wide: delete the allocating stores and initializers the
    never-used analyses prove removable (DRAG001's candidates), when
    the right-hand side is removal-pure — "the constructor is the only
    code that references the object and ... has no influence on the
    rest of the program" — and keep any allocation an OutOfMemoryError
    handler could observe (§5.5)."""
    table = context.table
    dead = context.interproc.dead
    dead_field_names = {f for _, f in dead.dead_fields}

    def removable(expr: ast.Expr) -> bool:
        return is_removal_pure_expr(table, expr) and not (
            dead.oom_handled and _allocates(expr)
        )

    def is_dead_field(class_name: str, name: str) -> bool:
        resolved = table.resolve_field(class_name, name)
        if resolved is None:
            return False
        declaring, field = resolved
        key = (declaring.name, name)
        return key in dead.dead_statics if field.mods.static else key in dead.dead_fields

    revised = clone_program(program)
    removed = 0
    for cls in revised.classes:
        # Field initializers of dead fields.
        for field in cls.fields:
            key = (cls.name, field.name)
            is_dead = key in dead.dead_statics if field.mods.static else key in dead.dead_fields
            if is_dead and field.init is not None and removable(field.init):
                removed += 1
                field.init = None
        # Statement rewrites in every body.
        bodies = [
            (f"{cls.name}.<init>", ctor.body, [p.name for p in ctor.params])
            for ctor in cls.ctors
        ]
        bodies += [
            (f"{cls.name}.{m.name}", m.body, [p.name for p in m.params])
            for m in cls.methods
            if m.body is not None
        ]
        for where, body, param_names in bodies:
            dead_locals = set(dead.dead_locals.get(where, set()))
            local_names = {
                node.name for node in body.walk() if isinstance(node, ast.VarDecl)
            }
            local_names.update(param_names)
            # A local is only removable when every store to it is pure;
            # otherwise removing its declaration would orphan the store.
            for node in body.walk():
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.target, ast.Name)
                    and node.target.ident in dead_locals
                    and not is_removal_pure_expr(table, node.value)
                ):
                    dead_locals.discard(node.target.ident)

            def remove_dead(stmt: ast.Stmt):
                nonlocal removed
                if isinstance(stmt, ast.Assign):
                    if (cls.name, stmt_signature(stmt)) in dead.array_store_sigs:
                        removed += 1
                        return None
                    target = stmt.target
                    name = field_target_name(target)
                    if isinstance(target, ast.Name):
                        dead_target = name in dead_locals or (
                            name not in local_names and is_dead_field(cls.name, name)
                        )
                    else:
                        dead_target = name in dead_field_names
                    if dead_target and removable(stmt.value):
                        removed += 1
                        return None
                if isinstance(stmt, ast.VarDecl) and stmt.name in dead_locals:
                    if stmt.init is None or removable(stmt.init):
                        removed += 1
                        return None
                return stmt

            rewrite_block(body, remove_dead)
    detail = f"{removed} allocation(s) removed"
    if not removed:
        raise TransformError(detail)
    return revised, detail


def _allocates(expr: ast.Expr) -> bool:
    return any(
        isinstance(node, (ast.New, ast.NewArray, ast.StringLit, ast.Binary))
        for node in expr.walk()
    )


# -- §3.3.3: lazy allocation ---------------------------------------------------


@register_applier("lazy-alloc-field")
def _apply_lazy_field(
    program: ast.Program, patch: Patch, context
) -> Tuple[ast.Program, str]:
    """§3.3.3: "We eliminate the original allocation of the object and the
    variable that would have referenced the object remains null ...
    Then, at every possible first use of the object, there is a test to
    check whether the variable is still null. If so, the object is
    allocated." Reads of the field go through a package-visible
    ``lazyInit_f()`` accessor performing that null-check-then-allocate
    test — §5.1's minimal code insertion in its simplest form.

    Beyond the shared gates (:func:`lazy_allocation_gates`) the rewrite
    needs every read and write of the field to sit in its declaring
    class."""
    cls_name = patch.params["class_name"]
    field_name = patch.params["field_name"]
    table = context.table
    info = table.get(cls_name)
    field = info.fields.get(field_name)
    if field is None:
        raise TransformError(f"no field {cls_name}.{field_name}")
    if field.mods.static:
        raise TransformError("lazy allocation targets instance fields")
    if not isinstance(field.type, ast.ClassType):
        raise TransformError("lazy allocation needs a class-typed field")
    gates = lazy_allocation_gates(
        table,
        info.decl,
        field,
        not context.exceptions.program_has_handler_for("OutOfMemoryError"),
    )
    if not gates.single_assignment:
        raise TransformError(gates.refusal)
    # No method of any class may assign the field either: the
    # constructor must be the single initialization point.
    for cls in program.classes:
        for method in cls.methods:
            if method.body is None:
                continue
            for node in method.body.walk():
                if not isinstance(node, ast.Assign):
                    continue
                target = node.target
                if (isinstance(target, ast.FieldAccess) and target.name == field_name) or (
                    cls.name == cls_name
                    and isinstance(target, ast.Name)
                    and target.ident == field_name
                ):
                    raise TransformError(
                        f"{cls.name}.{method.name} assigns {field_name}; "
                        "cannot prove a single initialization point"
                    )
    if gates.refusal is not None:
        raise TransformError(gates.refusal)
    # Reads outside the declaring class make the rewrite non-local; the
    # jack fields are package-visible but only read in their class.
    for cls in program.classes:
        if cls.name != cls_name and _reads_field(cls, field_name):
            resolved = table.resolve_field(cls.name, field_name)
            if resolved is not None and resolved[0].name == cls_name:
                raise TransformError(
                    f"{field_name} is read in {cls.name}; rewrite only supports in-class reads"
                )

    revised = clone_program(program)
    target_cls = find_class(revised, cls_name)
    accessor_name = "lazyInit_" + field_name

    for rfield in target_cls.fields:
        if rfield.name == field_name:
            rfield.init = None

    def drop_init(stmt: ast.Stmt):
        if isinstance(stmt, ast.Assign) and field_target_name(stmt.target) == field_name:
            return None
        return stmt

    def to_accessor(expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.Name) and expr.ident == field_name:
            return ast.Call(None, accessor_name, [], pos=expr.pos)
        if (
            isinstance(expr, ast.FieldAccess)
            and expr.name == field_name
            and isinstance(expr.target, ast.This)
        ):
            return ast.Call(ast.This(pos=expr.pos), accessor_name, [], pos=expr.pos)
        return expr

    for rctor in target_cls.ctors:
        rewrite_block(rctor.body, drop_init)
        rewrite_exprs_in_stmt(rctor.body, to_accessor)

    for method in target_cls.methods:
        if method.body is None or any(p.name == field_name for p in method.params):
            continue
        if any(
            isinstance(n, ast.VarDecl) and n.name == field_name
            for n in method.body.walk()
        ):
            continue  # shadowed by a local; reads hit the local, not the field
        rewrite_exprs_in_stmt(method.body, to_accessor)

    pos = field.pos
    target_cls.methods.append(
        ast.MethodDecl(
            ast.Modifiers("package"),
            field.type,
            accessor_name,
            [],
            ast.Block(
                [
                    ast.If(
                        ast.Binary("==", ast.Name(field_name, pos=pos), ast.NullLit(pos=pos), pos=pos),
                        ast.Block(
                            [
                                ast.Assign(
                                    ast.Name(field_name, pos=pos),
                                    clone_node(gates.allocation),
                                    pos=pos,
                                )
                            ],
                            pos=pos,
                        ),
                        None,
                        pos=pos,
                    ),
                    ast.Return(ast.Name(field_name, pos=pos), pos=pos),
                ],
                pos=pos,
            ),
            pos=pos,
        )
    )
    return revised, f"{cls_name}.{field_name} now allocated on first use"


def _reads_field(cls: ast.ClassDecl, field_name: str) -> bool:
    """Does a class body read ``f``/``this.f`` (assignment-target
    writes excluded)?"""
    bodies = [ctor.body for ctor in cls.ctors] + [
        m.body for m in cls.methods if m.body is not None
    ]
    for body in bodies:
        for stmt in body.walk():
            if isinstance(stmt, ast.Assign):
                exprs = [stmt.value] if isinstance(stmt.target, ast.Name) else [stmt.target, stmt.value]
            elif isinstance(stmt, ast.VarDecl):
                exprs = [stmt.init]
            elif isinstance(stmt, ast.ExprStmt):
                exprs = [stmt.expr]
            elif isinstance(stmt, (ast.Return, ast.Throw)):
                exprs = [stmt.value]
            elif isinstance(stmt, (ast.If, ast.While, ast.For)):
                exprs = [stmt.cond]
            elif isinstance(stmt, ast.Synchronized):
                exprs = [stmt.monitor]
            elif isinstance(stmt, ast.SuperCall):
                exprs = stmt.args
            else:
                continue
            if any(
                field_target_name(sub) == field_name
                for expr in exprs
                if expr is not None
                for sub in expr.walk()
            ):
                return True
    return False
