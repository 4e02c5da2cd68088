"""Minimal code insertion for lazy allocation (§5.1).

"Minimal code insertion: this analysis helps to determine where lazy
allocation could be used. ... At first, possible references to that
object are identified using alias analysis. Then, possible uses of a
reference are identified using use-def chains. Finally, the code for
lazy allocating the object is inserted before every possible use."

Our variant works on the field level the jack rewrite needs: for a
candidate field it enumerates every *possible first use* — each read of
the field in its visibility scope — which are exactly the program
points the null-check-then-allocate test must guard. The lazy-allocation
applier in :mod:`repro.transform.apply` factors all of them through one
accessor (a simple but safe instance of PRE-style placement: the checks
are inserted at use sites rather than hoisted, trading a test per use
for correctness on all paths).

:func:`lazy_allocation_gates` evaluates the §3.3.3/§5.5 safety gates
once for both consumers: the linter grades DRAG003 by them and the
applier refuses a rewrite the first one fails.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.analysis.purity import ctor_purity
from repro.analysis.usage import field_target_name
from repro.mjava import ast
from repro.mjava.sema import ClassTable

_CONSTANTS = (ast.IntLit, ast.CharLit, ast.BoolLit, ast.StringLit, ast.NullLit)


class LazyGates(NamedTuple):
    """The §3.3.3 gates for lazily allocating one instance field."""

    allocation: Optional[ast.Expr]  # first allocating initialization
    line: int  # its line (ctor assignment or field initializer)
    single_assignment: bool  # one initialization, no method assigns f/this.f
    constant_args: bool
    ctor_lazy_safe: bool  # pure constructor that reads no program state
    oom_unhandled: bool
    refusal: Optional[str]  # the first failed gate, worded for the applier


def lazy_allocation_gates(
    table: ClassTable, decl: ast.ClassDecl, field: ast.FieldDecl, oom_unhandled: bool
) -> LazyGates:
    """Evaluate the shared lazy-allocation gates for ``decl.field``.

    The initializations are the field initializer plus every
    constructor assignment to ``f``/``this.f``; exactly one may exist,
    it must be ``new C(constant args)`` with a ``lazy_safe``
    constructor, no method of the class may assign the field, and the
    program may not handle OutOfMemoryError.
    """
    inits = []  # (value, line, refusal when not a plain allocation)
    if field.init is not None:
        inits.append((field.init, field.pos.line, "field initializer is not a plain allocation"))
    for ctor in decl.ctors:
        for node in ctor.body.walk():
            if isinstance(node, ast.Assign) and field_target_name(node.target) == field.name:
                inits.append((node.value, node.pos.line, "constructor assigns a non-allocation value"))
    allocs = [(v, line) for v, line, _ in inits if isinstance(v, (ast.New, ast.NewArray))]
    allocation, line = allocs[0] if allocs else (None, 0)
    assigner = next(
        (
            m.name
            for m in decl.methods
            if m.body is not None
            and any(
                isinstance(n, ast.Assign) and field_target_name(n.target) == field.name
                for n in m.body.walk()
            )
        ),
        None,
    )
    new = allocation if isinstance(allocation, ast.New) else None
    constant = new is not None and all(isinstance(a, _CONSTANTS) for a in new.args)
    purity = (
        ctor_purity(table, new.class_name)
        if new is not None and table.has(new.class_name)
        else None
    )
    lazy_safe = purity is not None and purity.lazy_safe

    bad_init = next((why for v, _, why in inits if not isinstance(v, ast.New)), None)
    if bad_init is not None:
        refusal = bad_init
    elif len(inits) != 1:
        refusal = f"{decl.name}.{field.name} must have exactly one initializing allocation"
    elif assigner is not None:
        refusal = (
            f"{decl.name}.{assigner} assigns {field.name}; "
            "cannot prove a single initialization point"
        )
    elif not constant:
        refusal = "constructor arguments are not constants"
    elif not lazy_safe:
        reasons = purity.reasons if purity is not None else ["unknown class"]
        refusal = f"constructor of {new.class_name} is not lazy-safe: {reasons}"
    elif not oom_unhandled:
        refusal = "program has a handler for OutOfMemoryError"
    else:
        refusal = None
    return LazyGates(
        allocation,
        line,
        len(inits) == 1 and assigner is None,
        constant,
        lazy_safe,
        oom_unhandled,
        refusal,
    )


class FirstUseSite(NamedTuple):
    """A possible first use of a lazily-allocated field."""

    class_name: str
    member: str  # method name or "<init>"
    line: int
    kind: str  # 'name' (bare f) or 'this-field' (this.f) or 'field-access'


def _reads_in_member(class_name: str, member_name: str, body: ast.Block, field: str):
    out: List[FirstUseSite] = []

    def note(expr: ast.Expr, kind: str) -> None:
        out.append(FirstUseSite(class_name, member_name, expr.pos.line, kind))

    def scan_expr(expr: ast.Expr) -> None:
        if isinstance(expr, ast.Name) and expr.ident == field:
            note(expr, "name")
            return
        if isinstance(expr, ast.FieldAccess) and expr.name == field:
            if isinstance(expr.target, ast.This):
                note(expr, "this-field")
            else:
                note(expr, "field-access")
            scan_expr(expr.target)
            return
        for name in expr._fields:
            value = getattr(expr, name)
            if isinstance(value, ast.Expr):
                scan_expr(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.Expr):
                        scan_expr(item)

    def scan_stmt(stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Assign):
            # a plain write "f = ..." is not a use; reads in the RHS and
            # inside compound targets are
            target = stmt.target
            if isinstance(target, ast.Index):
                scan_expr(target.array)
                scan_expr(target.index)
            elif isinstance(target, ast.FieldAccess):
                scan_expr(target.target)
            scan_expr(stmt.value)
            return
        for name in stmt._fields:
            value = getattr(stmt, name)
            if isinstance(value, ast.Expr):
                scan_expr(value)
            elif isinstance(value, ast.Stmt):
                scan_stmt(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.Stmt):
                        scan_stmt(item)
                    elif isinstance(item, ast.Expr):
                        scan_expr(item)
                    elif isinstance(item, ast.CatchClause):
                        scan_stmt(item.body)

    scan_stmt(body)
    return out


def first_use_sites(table: ClassTable, class_name: str, field: str) -> List[FirstUseSite]:
    """Every possible first use of ``class_name.field``, scanning the
    field's visibility scope (private → declaring class only; otherwise
    every class, reads through any receiver counted by field name)."""
    info = table.get(class_name)
    decl = info.fields.get(field)
    if decl is None:
        return []
    if decl.mods.visibility == "private":
        scope = [info.decl]
    else:
        scope = [c.decl for c in table.classes.values()]
    out: List[FirstUseSite] = []
    for cls in scope:
        members = [("<init>", ctor.body) for ctor in cls.ctors]
        members += [(m.name, m.body) for m in cls.methods if m.body is not None]
        for member_name, body in members:
            for site in _reads_in_member(cls.name, member_name, body, field):
                # only name-reads bind to this field in foreign classes
                # when the class actually inherits it
                if site.kind == "name" and cls.name != class_name:
                    resolved = table.resolve_field(cls.name, field)
                    if resolved is None or resolved[0].name != class_name:
                        continue
                out.append(site)
    return out
