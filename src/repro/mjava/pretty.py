"""Pretty-printer emitting parseable mini-Java source from an AST.

``parse_program(pretty_print(prog))`` is structurally equal to ``prog``;
a hypothesis property test in tests/mjava/test_roundtrip.py checks this.
The printer fully parenthesizes nested binary expressions, which keeps it
simple and keeps the round trip exact.
"""

from __future__ import annotations

import difflib
from typing import List

from repro.mjava import ast

_CHAR_ESCAPES = {
    "\n": "\\n",
    "\t": "\\t",
    "\r": "\\r",
    "\0": "\\0",
    "\\": "\\\\",
    "\b": "\\b",
    "\f": "\\f",
}


def _escape_char(ch: str) -> str:
    if ch in _CHAR_ESCAPES:
        return _CHAR_ESCAPES[ch]
    if ch == "'":
        return "\\'"
    return ch


def _escape_string(text: str) -> str:
    out = []
    for ch in text:
        if ch in _CHAR_ESCAPES:
            out.append(_CHAR_ESCAPES[ch])
        elif ch == '"':
            out.append('\\"')
        else:
            out.append(ch)
    return "".join(out)


def format_type(type_: ast.Type) -> str:
    return repr(type_)


def format_expr(expr: ast.Expr) -> str:
    if isinstance(expr, ast.IntLit):
        # The parser folds '-<literal>' back into a negative IntLit, so
        # this round-trips exactly.
        if expr.value < 0:
            return f"(-{-expr.value})"
        return str(expr.value)
    if isinstance(expr, ast.CharLit):
        return f"'{_escape_char(expr.value)}'"
    if isinstance(expr, ast.BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, ast.StringLit):
        return f'"{_escape_string(expr.value)}"'
    if isinstance(expr, ast.NullLit):
        return "null"
    if isinstance(expr, ast.This):
        return "this"
    if isinstance(expr, ast.Name):
        return expr.ident
    if isinstance(expr, ast.FieldAccess):
        return f"{_postfix_target(expr.target)}.{expr.name}"
    if isinstance(expr, ast.Index):
        return f"{_postfix_target(expr.array)}[{format_expr(expr.index)}]"
    if isinstance(expr, ast.Call):
        args = ", ".join(format_expr(a) for a in expr.args)
        if expr.target is None:
            return f"{expr.name}({args})"
        return f"{_postfix_target(expr.target)}.{expr.name}({args})"
    if isinstance(expr, ast.SuperMethodCall):
        args = ", ".join(format_expr(a) for a in expr.args)
        return f"super.{expr.name}({args})"
    if isinstance(expr, ast.New):
        args = ", ".join(format_expr(a) for a in expr.args)
        return f"new {expr.class_name}({args})"
    if isinstance(expr, ast.NewArray):
        base = expr.element_type
        suffixes = ""
        while isinstance(base, ast.ArrayType):
            suffixes += "[]"
            base = base.element
        return f"new {format_type(base)}[{format_expr(expr.length)}]{suffixes}"
    if isinstance(expr, ast.Unary):
        return f"({expr.op}{format_expr(expr.operand)})"
    if isinstance(expr, ast.Binary):
        return f"({format_expr(expr.left)} {expr.op} {format_expr(expr.right)})"
    if isinstance(expr, ast.InstanceOf):
        return f"({format_expr(expr.value)} instanceof {expr.class_name})"
    if isinstance(expr, ast.Cast):
        return f"((({format_type(expr.type)}) {format_expr(expr.value)}))"
    raise TypeError(f"unknown expression node: {type(expr).__name__}")


def _postfix_target(expr: ast.Expr) -> str:
    """Format an expression appearing before '.', '[' — parenthesize
    anything that is not already a postfix/primary form."""
    text = format_expr(expr)
    if isinstance(
        expr,
        (
            ast.Name,
            ast.This,
            ast.FieldAccess,
            ast.Index,
            ast.Call,
            ast.SuperMethodCall,
            ast.StringLit,
        ),
    ):
        return text
    return f"({text})"


class _Printer:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def print_program(self, program: ast.Program) -> str:
        for cls in program.classes:
            self.print_class(cls)
            self.emit("")
        return "\n".join(self.lines).rstrip() + "\n"

    def print_class(self, cls: ast.ClassDecl) -> None:
        header = f"class {cls.name}"
        if cls.superclass:
            header += f" extends {cls.superclass}"
        self.emit(header + " {")
        self.depth += 1
        for field in cls.fields:
            init = f" = {format_expr(field.init)}" if field.init is not None else ""
            self.emit(f"{self._mods(field.mods)}{format_type(field.type)} {field.name}{init};")
        for ctor in cls.ctors:
            params = ", ".join(f"{format_type(p.type)} {p.name}" for p in ctor.params)
            self.emit(f"{self._mods(ctor.mods)}{ctor.name}({params}) {{")
            self.depth += 1
            for stmt in ctor.body.stmts:
                self.print_stmt(stmt)
            self.depth -= 1
            self.emit("}")
        for method in cls.methods:
            params = ", ".join(f"{format_type(p.type)} {p.name}" for p in method.params)
            sig = (
                f"{self._mods(method.mods)}{format_type(method.return_type)} "
                f"{method.name}({params})"
            )
            if method.body is None:
                self.emit(sig + ";")
                continue
            self.emit(sig + " {")
            self.depth += 1
            for stmt in method.body.stmts:
                self.print_stmt(stmt)
            self.depth -= 1
            self.emit("}")
        self.depth -= 1
        self.emit("}")

    @staticmethod
    def _mods(mods: ast.Modifiers) -> str:
        parts = []
        if mods.visibility != "package":
            parts.append(mods.visibility)
        if mods.static:
            parts.append("static")
        if mods.final:
            parts.append("final")
        if mods.native:
            parts.append("native")
        return " ".join(parts) + (" " if parts else "")

    def print_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.emit("{")
            self.depth += 1
            for inner in stmt.stmts:
                self.print_stmt(inner)
            self.depth -= 1
            self.emit("}")
        elif isinstance(stmt, ast.VarDecl):
            init = f" = {format_expr(stmt.init)}" if stmt.init is not None else ""
            self.emit(f"{format_type(stmt.type)} {stmt.name}{init};")
        elif isinstance(stmt, ast.ExprStmt):
            self.emit(f"{format_expr(stmt.expr)};")
        elif isinstance(stmt, ast.Assign):
            self.emit(f"{format_expr(stmt.target)} = {format_expr(stmt.value)};")
        elif isinstance(stmt, ast.If):
            self.emit(f"if ({format_expr(stmt.cond)})")
            self._print_nested(stmt.then)
            if stmt.otherwise is not None:
                self.emit("else")
                self._print_nested(stmt.otherwise)
        elif isinstance(stmt, ast.While):
            self.emit(f"while ({format_expr(stmt.cond)})")
            self._print_nested(stmt.body)
        elif isinstance(stmt, ast.For):
            init = self._inline_stmt(stmt.init) if stmt.init is not None else ""
            cond = format_expr(stmt.cond) if stmt.cond is not None else ""
            update = self._inline_stmt(stmt.update, trailing=False) if stmt.update else ""
            self.emit(f"for ({init} {cond}; {update})")
            self._print_nested(stmt.body)
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                self.emit("return;")
            else:
                self.emit(f"return {format_expr(stmt.value)};")
        elif isinstance(stmt, ast.Throw):
            self.emit(f"throw {format_expr(stmt.value)};")
        elif isinstance(stmt, ast.Break):
            self.emit("break;")
        elif isinstance(stmt, ast.Continue):
            self.emit("continue;")
        elif isinstance(stmt, ast.Try):
            self.emit("try")
            self._print_nested(stmt.body)
            for clause in stmt.catches:
                self.emit(f"catch ({clause.exc_class} {clause.var})")
                self._print_nested(clause.body)
        elif isinstance(stmt, ast.Synchronized):
            self.emit(f"synchronized ({format_expr(stmt.monitor)})")
            self._print_nested(stmt.body)
        elif isinstance(stmt, ast.SuperCall):
            args = ", ".join(format_expr(a) for a in stmt.args)
            self.emit(f"super({args});")
        else:
            raise TypeError(f"unknown statement node: {type(stmt).__name__}")

    @staticmethod
    def _inline_stmt(stmt: ast.Stmt, trailing: bool = True) -> str:
        suffix = ";" if trailing else ""
        if isinstance(stmt, ast.VarDecl):
            init = f" = {format_expr(stmt.init)}" if stmt.init is not None else ""
            return f"{format_type(stmt.type)} {stmt.name}{init}{suffix}"
        if isinstance(stmt, ast.Assign):
            return f"{format_expr(stmt.target)} = {format_expr(stmt.value)}{suffix}"
        if isinstance(stmt, ast.ExprStmt):
            return f"{format_expr(stmt.expr)}{suffix}"
        raise TypeError(f"statement not allowed in for-header: {type(stmt).__name__}")

    def _print_nested(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.print_stmt(stmt)
        else:
            self.depth += 1
            self.print_stmt(stmt)
            self.depth -= 1


def pretty_print(program: ast.Program) -> str:
    """Render a program AST back to parseable mini-Java source."""
    return _Printer().print_program(program)


def unified_source_diff(
    before: ast.Program,
    after: ast.Program,
    fromfile: str = "original",
    tofile: str = "revised",
    context_lines: int = 3,
) -> str:
    """Unified diff of two program ASTs via the pretty-printer — what
    ``repro optimize --diff`` prints. Both sides go through the same
    printer, so the diff shows exactly the pipeline's rewrites."""
    return "".join(
        difflib.unified_diff(
            pretty_print(before).splitlines(keepends=True),
            pretty_print(after).splitlines(keepends=True),
            fromfile=fromfile,
            tofile=tofile,
            n=context_lines,
        )
    )
