"""Constructor purity for dead-code removal and lazy allocation.

§3.3.2: removing an allocation also removes its constructor call, so
"we must guarantee that the constructor is the only code that references
the object and that the constructor has no influence on the rest of the
program, e.g., it does not update other objects or static variables and
it cannot throw an exception for which there may be a handler".

§3.3.3 adds, for lazy allocation: "the constructor may not depend on
program state, e.g., it must have no parameters or parameters that are
constant and it may not read program state (for example, access a
static variable)".

This analysis works on the AST (it reasons about *which object* a write
targets, which the stack bytecode obscures). It is deliberately strict:
anything it cannot prove harmless makes the constructor impure.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.mjava import ast
from repro.mjava.sema import ClassTable


class PurityResult:
    """Outcome of analysing one constructor."""

    __slots__ = ("class_name", "pure", "reads_statics", "reasons")

    def __init__(self, class_name: str, pure: bool, reads_statics: bool, reasons: List[str]) -> None:
        self.class_name = class_name
        self.pure = pure
        self.reads_statics = reads_statics
        self.reasons = reasons

    @property
    def lazy_safe(self) -> bool:
        """Safe to postpone a ``new C(...)`` to first use: pure and
        independent of mutable program state."""
        return self.pure and not self.reads_statics

    def __repr__(self) -> str:
        return f"<purity {self.class_name} pure={self.pure} reads_statics={self.reads_statics}>"


class _CtorAnalyzer:
    def __init__(self, table: ClassTable, class_name: str, in_progress: Set[str]) -> None:
        self.table = table
        self.info = table.get(class_name)
        self.in_progress = in_progress
        self.reasons: List[str] = []
        self.reads_statics = False
        self.locals: Set[str] = set()

    def fail(self, reason: str, pos=None) -> None:
        where = f" at {pos}" if pos else ""
        self.reasons.append(reason + where)

    # -- entry ---------------------------------------------------------------

    def run(self) -> PurityResult:
        # Superclass constructor must be pure too.
        if self.info.super_name is not None:
            sup = ctor_purity(self.table, self.info.super_name, _in_progress=self.in_progress)
            if not sup.pure:
                self.fail(f"superclass constructor {self.info.super_name} is impure")
            self.reads_statics |= sup.reads_statics
        for field in self.info.decl.fields:
            if not field.mods.static and field.init is not None:
                self.check_expr(field.init)
        ctor = self.info.ctor
        if ctor is not None:
            self.locals.update(p.name for p in ctor.params)
            for stmt in ctor.body.stmts:
                self.check_stmt(stmt)
        return PurityResult(
            self.info.name,
            pure=not self.reasons,
            reads_statics=self.reads_statics,
            reasons=self.reasons,
        )

    # -- helpers ---------------------------------------------------------------

    def _is_own_field(self, name: str) -> bool:
        return self.table.resolve_field(self.info.name, name) is not None

    def _is_local(self, name: str) -> bool:
        return name in self.locals

    # -- statements ---------------------------------------------------------------

    def check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                self.check_stmt(inner)
        elif isinstance(stmt, ast.VarDecl):
            self.locals.add(stmt.name)
            if stmt.init is not None:
                self.check_expr(stmt.init)
        elif isinstance(stmt, ast.Assign):
            self.check_assign(stmt)
        elif isinstance(stmt, ast.If):
            self.check_expr(stmt.cond)
            self.check_stmt(stmt.then)
            if stmt.otherwise is not None:
                self.check_stmt(stmt.otherwise)
        elif isinstance(stmt, (ast.While,)):
            self.check_expr(stmt.cond)
            self.check_stmt(stmt.body)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self.check_stmt(stmt.init)
            if stmt.cond is not None:
                self.check_expr(stmt.cond)
            if stmt.update is not None:
                self.check_stmt(stmt.update)
            self.check_stmt(stmt.body)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.check_expr(stmt.value)
        elif isinstance(stmt, ast.SuperCall):
            for arg in stmt.args:
                self.check_expr(arg)
        elif isinstance(stmt, ast.Throw):
            self.fail("constructor throws explicitly", stmt.pos)
        elif isinstance(stmt, ast.Try):
            self.fail("constructor contains try/catch", stmt.pos)
        elif isinstance(stmt, ast.Synchronized):
            self.fail("constructor synchronizes", stmt.pos)
        elif isinstance(stmt, ast.ExprStmt):
            # A bare expression statement is only pure if the expression
            # is (e.g. `new Pure();`); method calls are rejected there.
            self.check_expr(stmt.expr)
        else:
            self.fail(f"unsupported statement {type(stmt).__name__}", stmt.pos)

    def check_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if isinstance(target, ast.Name):
            if self._is_local(target.ident):
                pass
            elif self._is_own_field(target.ident):
                resolved = self.table.resolve_field(self.info.name, target.ident)
                if resolved[1].mods.static:
                    self.fail(f"writes static field {target.ident}", stmt.pos)
            else:
                self.fail(f"writes unknown name {target.ident}", stmt.pos)
        elif isinstance(target, ast.FieldAccess):
            if not isinstance(target.target, ast.This):
                self.fail("writes a field of another object", stmt.pos)
        elif isinstance(target, ast.Index):
            # Writes into arrays the constructor itself can see via a
            # local or its own fields; such arrays are construction-fresh
            # in every pattern we accept.
            array = target.array
            ok = (
                isinstance(array, ast.Name)
                and (self._is_local(array.ident) or self._is_own_field(array.ident))
            ) or (isinstance(array, ast.FieldAccess) and isinstance(array.target, ast.This))
            if not ok:
                self.fail("writes into a foreign array", stmt.pos)
            self.check_expr(target.index)
        else:
            self.fail("unsupported assignment target", stmt.pos)
        self.check_expr(stmt.value)

    # -- expressions ----------------------------------------------------------------

    def check_expr(self, expr: ast.Expr) -> None:
        if isinstance(
            expr,
            (ast.IntLit, ast.CharLit, ast.BoolLit, ast.StringLit, ast.NullLit, ast.This),
        ):
            return
        if isinstance(expr, ast.Name):
            if self._is_local(expr.ident):
                return
            resolved = self.table.resolve_field(self.info.name, expr.ident)
            if resolved is not None:
                if resolved[1].mods.static:
                    self.reads_statics = True
                return
            self.fail(f"reads unknown name {expr.ident}", expr.pos)
            return
        if isinstance(expr, ast.FieldAccess):
            if isinstance(expr.target, ast.This):
                return
            if isinstance(expr.target, ast.Name) and self.table.has(expr.target.ident) \
                    and not self._is_local(expr.target.ident) \
                    and not self._is_own_field(expr.target.ident):
                self.reads_statics = True  # static field read
                return
            # arr.length is harmless
            if expr.name == "length":
                self.check_expr(expr.target)
                return
            self.fail("reads a field of another object", expr.pos)
            return
        if isinstance(expr, ast.Index):
            self.check_expr(expr.array)
            self.check_expr(expr.index)
            return
        if isinstance(expr, (ast.Unary,)):
            self.check_expr(expr.operand)
            return
        if isinstance(expr, ast.Binary):
            self.check_expr(expr.left)
            self.check_expr(expr.right)
            return
        if isinstance(expr, (ast.Cast,)):
            self.check_expr(expr.value)
            return
        if isinstance(expr, ast.InstanceOf):
            self.check_expr(expr.value)
            return
        if isinstance(expr, ast.New):
            nested = ctor_purity(self.table, expr.class_name, _in_progress=self.in_progress)
            if not nested.pure:
                self.fail(f"allocates impure {expr.class_name}", expr.pos)
            self.reads_statics |= nested.reads_statics
            for arg in expr.args:
                self.check_expr(arg)
            return
        if isinstance(expr, ast.NewArray):
            self.check_expr(expr.length)
            return
        if isinstance(expr, (ast.Call, ast.SuperMethodCall)):
            self.fail("calls a method", expr.pos)
            return
        self.fail(f"unsupported expression {type(expr).__name__}", expr.pos)


def ctor_purity(
    table: ClassTable,
    class_name: str,
    _in_progress: Optional[Set[str]] = None,
) -> PurityResult:
    """Analyze the constructor of ``class_name`` (recursing into the
    constructors it invokes, with cycle protection)."""
    in_progress = _in_progress if _in_progress is not None else set()
    if class_name in in_progress:
        # Recursive construction: assume pure at the back-edge; a real
        # impurity elsewhere still fails the analysis.
        return PurityResult(class_name, pure=True, reads_statics=False, reasons=[])
    in_progress.add(class_name)
    try:
        return _CtorAnalyzer(table, class_name, in_progress).run()
    finally:
        in_progress.discard(class_name)
