"""Mini-Java frontend: lexer, AST, parser, pretty-printer, sema, compiler.

The mini-Java language is the substrate standing in for Java in this
reproduction: a single-inheritance class-based language with visibility
modifiers, static members, arrays, strings, exceptions and ``synchronized``
blocks — rich enough to express the drag patterns of the paper's nine
benchmarks and to give the static analyses of Section 5 something real to
analyze.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.mjava.lexer": ("tokenize",),
    "repro.mjava.parser": ("parse_program",),
    "repro.mjava.pretty": ("pretty_print",),
})

__all__ = ["tokenize", "parse_program", "pretty_print"]
