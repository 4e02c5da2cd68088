"""Array-element liveness (§5.2), after Shaham/Kolodner/Sagiv [24].

"In jess a dynamic vector-like array of references is maintained. After
removing the logically last element from this array, that element has no
future use. ... Array liveness analysis can detect this case."

Full array liveness is interprocedural and subscript-sensitive; this
module implements the *logical-size pattern* that covers the vector-like
containers the paper (and [24]) found in practice:

* a class holds a reference-array field ``data`` and an int field
  ``count``;
* every read ``data[e]`` inside the class is bounded by ``count`` —
  either ``e`` is a loop variable with guard ``e < count``, an index
  checked against ``count`` before the access, or ``count``/
  ``count - 1`` itself;
* then elements at indices ``>= count`` are dead, and every statement
  that decrements ``count`` is a *removal point* where ``data[count] =
  null`` can be inserted.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.analysis.usage import field_target_name
from repro.mjava import ast
from repro.mjava.sema import ClassInfo, ClassTable


class _ReadScanner:
    """Collects reads ``data[e]`` of one array field in one method body,
    along with whether each is bounded by the size field."""

    def __init__(self, array_field: str, size_field: str) -> None:
        self.array_field = array_field
        self.size_field = size_field
        self.unbounded: List[ast.Index] = []
        # names known (syntactically) to be < size_field in scope
        self._bounded_names: List[set] = [set()]

    def _guard_bounds(self, cond: ast.Expr, names: set) -> None:
        """Extract facts of the form ``x < count`` / ``x <= count - 1``
        / ``count > x`` from a condition (conjunctions only)."""
        if isinstance(cond, ast.Binary):
            if cond.op == "&&":
                self._guard_bounds(cond.left, names)
                self._guard_bounds(cond.right, names)
                return
            if cond.op in ("<", "<="):
                lhs, rhs = cond.left, cond.right
            elif cond.op in (">", ">="):
                lhs, rhs = cond.right, cond.left
            else:
                return
            bound_ok = field_target_name(rhs) == self.size_field and cond.op in ("<", ">")
            bound_ok = bound_ok or (
                isinstance(rhs, ast.Binary)
                and rhs.op == "-"
                and field_target_name(rhs.left) == self.size_field
            )
            if bound_ok and isinstance(lhs, ast.Name):
                names.add(lhs.ident)

    def _negated_guard_bounds(self, cond: ast.Expr, names: set) -> None:
        """Extract facts that hold *after* an early-exit guard
        ``if (cond) { throw/return; }``: the negation of every term of
        an ``||``-chain holds, so a term ``x >= count`` (or
        ``count <= x``) yields ``x < count`` afterwards."""
        if isinstance(cond, ast.Binary):
            if cond.op == "||":
                self._negated_guard_bounds(cond.left, names)
                self._negated_guard_bounds(cond.right, names)
                return
            if cond.op == ">=" and field_target_name(cond.right) == self.size_field:
                if isinstance(cond.left, ast.Name):
                    names.add(cond.left.ident)
            elif cond.op == "<=" and field_target_name(cond.left) == self.size_field:
                if isinstance(cond.right, ast.Name):
                    names.add(cond.right.ident)

    @staticmethod
    def _always_exits(stmt: ast.Stmt) -> bool:
        if isinstance(stmt, (ast.Throw, ast.Return, ast.Break, ast.Continue)):
            return True
        if isinstance(stmt, ast.Block) and stmt.stmts:
            return _ReadScanner._always_exits(stmt.stmts[-1])
        return False

    def _index_is_bounded(self, index: ast.Expr) -> bool:
        # count or count-1 themselves
        if field_target_name(index) == self.size_field:
            return True
        if (
            isinstance(index, ast.Binary)
            and index.op == "-"
            and field_target_name(index.left) == self.size_field
        ):
            return True
        if isinstance(index, ast.Name):
            return any(index.ident in scope for scope in self._bounded_names)
        return False

    def scan_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            # Early-exit guards establish bounds for the rest of the
            # block: `if (i >= count) { throw ...; } ... data[i] ...`.
            pushed = 0
            for inner in stmt.stmts:
                self.scan_stmt(inner)
                if (
                    isinstance(inner, ast.If)
                    and inner.otherwise is None
                    and self._always_exits(inner.then)
                ):
                    names = set()
                    self._negated_guard_bounds(inner.cond, names)
                    if names:
                        self._bounded_names.append(names)
                        pushed += 1
            for _ in range(pushed):
                self._bounded_names.pop()
        elif isinstance(stmt, ast.If):
            names = set()
            self._guard_bounds(stmt.cond, names)
            self.scan_expr(stmt.cond)
            self._bounded_names.append(names)
            self.scan_stmt(stmt.then)
            self._bounded_names.pop()
            if stmt.otherwise is not None:
                self.scan_stmt(stmt.otherwise)
        elif isinstance(stmt, (ast.While,)):
            names = set()
            self._guard_bounds(stmt.cond, names)
            self.scan_expr(stmt.cond)
            self._bounded_names.append(names)
            self.scan_stmt(stmt.body)
            self._bounded_names.pop()
        elif isinstance(stmt, ast.For):
            names = set()
            if stmt.cond is not None:
                self._guard_bounds(stmt.cond, names)
                self.scan_expr(stmt.cond)
            if stmt.init is not None:
                self.scan_stmt(stmt.init)
            self._bounded_names.append(names)
            self.scan_stmt(stmt.body)
            if stmt.update is not None:
                self.scan_stmt(stmt.update)
            self._bounded_names.pop()
        elif isinstance(stmt, ast.Assign):
            # A write data[e] = v does not *read* the element; only the
            # index and value expressions are scanned.
            if isinstance(stmt.target, ast.Index):
                self.scan_expr(stmt.target.index)
            else:
                self.scan_expr_children_only(stmt.target)
            self.scan_expr(stmt.value)
        elif isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                self.scan_expr(stmt.init)
        elif isinstance(stmt, ast.ExprStmt):
            self.scan_expr(stmt.expr)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.scan_expr(stmt.value)
        elif isinstance(stmt, ast.Throw):
            self.scan_expr(stmt.value)
        elif isinstance(stmt, ast.Try):
            self.scan_stmt(stmt.body)
            for clause in stmt.catches:
                self.scan_stmt(clause.body)
        elif isinstance(stmt, ast.Synchronized):
            self.scan_expr(stmt.monitor)
            self.scan_stmt(stmt.body)
        elif isinstance(stmt, ast.SuperCall):
            for arg in stmt.args:
                self.scan_expr(arg)

    def scan_expr_children_only(self, expr: ast.Expr) -> None:
        for child in expr.children():
            if isinstance(child, ast.Expr):
                self.scan_expr(child)

    def scan_expr(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.Index) and field_target_name(expr.array) == self.array_field:
            if not self._index_is_bounded(expr.index):
                self.unbounded.append(expr)
            self.scan_expr(expr.index)
            return
        self.scan_expr_children_only(expr)


def _decrements_of(info: ClassInfo, size_field: str):
    """(method_name, Assign) pairs where ``size_field`` is decremented."""
    out = []
    members = [("<init>", info.ctor)] if info.ctor else []
    members += [(m.name, m) for m in info.methods.values()]
    for name, member in members:
        body = member.body if member is not None else None
        if body is None:
            continue
        for node in body.walk():
            if (
                isinstance(node, ast.Assign)
                and field_target_name(node.target) == size_field
                and isinstance(node.value, ast.Binary)
                and node.value.op == "-"
                and field_target_name(node.value.left) == size_field
            ):
                out.append((name, node))
    return out


def logical_size_pairs(table: ClassTable, class_name: str) -> List[Tuple[str, str]]:
    """Detect (array_field, size_field) logical-size pairs in a class:
    a private reference-array field whose in-class reads are all bounded
    by an int field that the class decrements somewhere (removal)."""
    info = table.get(class_name)
    array_fields = [
        f.name
        for f in info.decl.fields
        if isinstance(f.type, ast.ArrayType)
        and f.type.element.is_reference()
        and not f.mods.static
    ]
    int_fields = [
        f.name
        for f in info.decl.fields
        if f.type == ast.INT and not f.mods.static
    ]
    pairs = []
    for array_field in array_fields:
        for size_field in int_fields:
            if not _decrements_of(info, size_field):
                continue
            scanner = _ReadScanner(array_field, size_field)
            members = ([info.ctor] if info.ctor else []) + list(info.methods.values())
            for member in members:
                if member.body is not None:
                    scanner.scan_stmt(member.body)
            if not scanner.unbounded:
                pairs.append((array_field, size_field))
    return pairs


def removal_points(table: ClassTable, class_name: str, pair: Tuple[str, str]):
    """Statements after which ``array[size] = null`` should be inserted:
    every decrement of the size field (unless the very next statement
    already nulls the slot). Returns (method_name, Assign) pairs."""
    array_field, size_field = pair
    info = table.get(class_name)
    return _decrements_of(info, size_field)
