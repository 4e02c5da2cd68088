"""Generic AST cloning and statement-level rewriting utilities.

Transforms never mutate their input program: they deep-clone it and
rewrite the clone, so an original/revised pair can be profiled
side by side (exactly how the paper's tables are produced).
"""

from __future__ import annotations

from typing import Callable, List, Union

from repro.errors import TransformError
from repro.mjava import ast

StmtRewrite = Callable[[ast.Stmt], Union[ast.Stmt, List[ast.Stmt], None]]


def clone_node(node):
    """Deep-copy an AST node (positions preserved)."""
    if not isinstance(node, ast.Node):
        return node
    args = []
    for name in node._fields:
        value = getattr(node, name)
        if isinstance(value, ast.Node):
            args.append(clone_node(value))
        elif isinstance(value, list):
            args.append([clone_node(v) for v in value])
        else:
            args.append(value)
    copy = type(node)(*args, pos=node.pos)
    if isinstance(node, ast.ClassDecl):
        copy.is_library = node.is_library
    return copy


def clone_program(program: ast.Program) -> ast.Program:
    return clone_node(program)


def rewrite_block(block: ast.Block, fn: StmtRewrite) -> ast.Block:
    """Apply ``fn`` to every statement (innermost first), in place on an
    already-cloned tree. ``fn`` returns a replacement statement, a list
    of statements, or None to delete the statement."""
    new_stmts: List[ast.Stmt] = []
    for stmt in block.stmts:
        stmt = _rewrite_children(stmt, fn)
        result = fn(stmt)
        if result is None:
            continue
        if isinstance(result, list):
            new_stmts.extend(result)
        else:
            new_stmts.append(result)
    block.stmts = new_stmts
    return block


def _rewrite_children(stmt: ast.Stmt, fn: StmtRewrite) -> ast.Stmt:
    if isinstance(stmt, ast.Block):
        return rewrite_block(stmt, fn)
    if isinstance(stmt, ast.If):
        stmt.then = _wrap_single(stmt.then, fn)
        if stmt.otherwise is not None:
            stmt.otherwise = _wrap_single(stmt.otherwise, fn)
    elif isinstance(stmt, ast.While):
        stmt.body = _wrap_single(stmt.body, fn)
    elif isinstance(stmt, ast.For):
        stmt.body = _wrap_single(stmt.body, fn)
    elif isinstance(stmt, ast.Try):
        rewrite_block(stmt.body, fn)
        for clause in stmt.catches:
            rewrite_block(clause.body, fn)
    elif isinstance(stmt, ast.Synchronized):
        rewrite_block(stmt.body, fn)
    return stmt


def _wrap_single(stmt: ast.Stmt, fn: StmtRewrite) -> ast.Stmt:
    """Rewrite a non-block child statement; if the rewrite produces
    multiple statements (or a deletion), wrap in a block."""
    stmt = _rewrite_children(stmt, fn)
    result = fn(stmt)
    if result is None:
        return ast.Block([], pos=stmt.pos)
    if isinstance(result, list):
        return ast.Block(result, pos=stmt.pos)
    return result


ExprRewrite = Callable[[ast.Expr], ast.Expr]


def rewrite_expr(expr: ast.Expr, fn: ExprRewrite) -> ast.Expr:
    """Bottom-up expression rewrite: children first, then the node."""
    for name in expr._fields:
        value = getattr(expr, name)
        if isinstance(value, ast.Expr):
            setattr(expr, name, rewrite_expr(value, fn))
        elif isinstance(value, list):
            setattr(
                expr,
                name,
                [rewrite_expr(v, fn) if isinstance(v, ast.Expr) else v for v in value],
            )
    return fn(expr)


def rewrite_exprs_in_stmt(stmt: ast.Stmt, fn: ExprRewrite) -> None:
    """Rewrite every expression in *read* position under a statement.

    Assignment targets are handled specially: a ``Name`` target is a
    pure write (not rewritten), while the base of an ``Index`` or
    ``FieldAccess`` target is a read of the container and is rewritten.
    """
    if isinstance(stmt, ast.Block):
        for inner in stmt.stmts:
            rewrite_exprs_in_stmt(inner, fn)
    elif isinstance(stmt, ast.VarDecl):
        if stmt.init is not None:
            stmt.init = rewrite_expr(stmt.init, fn)
    elif isinstance(stmt, ast.ExprStmt):
        stmt.expr = rewrite_expr(stmt.expr, fn)
    elif isinstance(stmt, ast.Assign):
        target = stmt.target
        if isinstance(target, ast.Index):
            target.array = rewrite_expr(target.array, fn)
            target.index = rewrite_expr(target.index, fn)
        elif isinstance(target, ast.FieldAccess):
            target.target = rewrite_expr(target.target, fn)
        stmt.value = rewrite_expr(stmt.value, fn)
    elif isinstance(stmt, ast.If):
        stmt.cond = rewrite_expr(stmt.cond, fn)
        rewrite_exprs_in_stmt(stmt.then, fn)
        if stmt.otherwise is not None:
            rewrite_exprs_in_stmt(stmt.otherwise, fn)
    elif isinstance(stmt, ast.While):
        stmt.cond = rewrite_expr(stmt.cond, fn)
        rewrite_exprs_in_stmt(stmt.body, fn)
    elif isinstance(stmt, ast.For):
        if stmt.init is not None:
            rewrite_exprs_in_stmt(stmt.init, fn)
        if stmt.cond is not None:
            stmt.cond = rewrite_expr(stmt.cond, fn)
        if stmt.update is not None:
            rewrite_exprs_in_stmt(stmt.update, fn)
        rewrite_exprs_in_stmt(stmt.body, fn)
    elif isinstance(stmt, ast.Return):
        if stmt.value is not None:
            stmt.value = rewrite_expr(stmt.value, fn)
    elif isinstance(stmt, ast.Throw):
        stmt.value = rewrite_expr(stmt.value, fn)
    elif isinstance(stmt, ast.Try):
        rewrite_exprs_in_stmt(stmt.body, fn)
        for clause in stmt.catches:
            rewrite_exprs_in_stmt(clause.body, fn)
    elif isinstance(stmt, ast.Synchronized):
        stmt.monitor = rewrite_expr(stmt.monitor, fn)
        rewrite_exprs_in_stmt(stmt.body, fn)
    elif isinstance(stmt, ast.SuperCall):
        stmt.args = [rewrite_expr(a, fn) for a in stmt.args]


def find_class(program: ast.Program, name: str) -> ast.ClassDecl:
    cls = program.find_class(name)
    if cls is None:
        raise TransformError(f"no class {name} in program")
    return cls


def find_method(program: ast.Program, class_name: str, method_name: str) -> ast.MethodDecl:
    cls = find_class(program, class_name)
    for method in cls.methods:
        if method.name == method_name:
            return method
    raise TransformError(f"no method {class_name}.{method_name}")
