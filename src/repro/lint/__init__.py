"""Static drag linting: find drag before running the program.

The paper's §5 observes that much of what the drag profiler measures
dynamically is visible statically: allocations never used, references
held past their last use, fields eagerly allocated but conditionally
needed. This package runs those analyses as a linter — compile once,
analyze once, emit rule-ID'd diagnostics (DRAG001..DRAG005) with
source spans and suggested §3.3 transformations — and can optionally
join the findings against a phase-1 drag log to rank them by measured
bytes·time.

Entry points:

- :func:`lint_program` — lint an already-linked AST.
- :func:`lint_file` — load, link, and lint a ``.mj`` file.
- :func:`detect_main_class` — find the class declaring static main.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro._lazy import lazy_exports
from repro.lint.diagnostics import LintResult
from repro.lint.passes import AnalysisContext, LintError, standard_pass_manager
from repro.mjava import ast

# Eager: render() shares its name with its submodule, which would be
# bound over a lazy export once loaded.
from repro.lint.render import FORMATS, render, to_json, to_sarif

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.lint.diagnostics": ("Diagnostic", "SourceSpan"),
    "repro.lint.passes": ("Pass", "PassManager"),
    "repro.lint.rules": ("ALL_RULES", "RULES_BY_ID", "SEVERITIES", "get_rule"),
})

__all__ = [
    "ALL_RULES",
    "AnalysisContext",
    "Diagnostic",
    "FORMATS",
    "LintError",
    "LintResult",
    "Pass",
    "PassManager",
    "RULES_BY_ID",
    "SEVERITIES",
    "SourceSpan",
    "detect_main_class",
    "get_rule",
    "lint_file",
    "lint_program",
    "render",
    "standard_pass_manager",
    "to_json",
    "to_sarif",
]


def detect_main_class(program: ast.Program) -> str:
    """The unique application class declaring ``static main``."""
    mains = [
        decl.name
        for decl in program.classes
        if not decl.is_library
        and any(m.name == "main" and m.mods.static for m in decl.methods)
    ]
    if len(mains) != 1:
        raise LintError(
            "cannot auto-detect main class "
            f"({'no' if not mains else 'multiple'} static main: {mains}); "
            "pass --main"
        )
    return mains[0]


def lint_program(
    program: ast.Program,
    main_class: str,
    program_path: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
    context: Optional[AnalysisContext] = None,
    telemetry=None,
    snapshot=None,
    drag=None,
) -> LintResult:
    """Run the standard lint pipeline over a linked program AST.

    ``telemetry`` (a :class:`repro.obs.Telemetry`, or None) records
    per-pass spans/durations and per-rule diagnostic counts.
    ``snapshot`` (a :class:`repro.snapshot.SnapshotAnalysis`) and
    ``drag`` (a :class:`repro.core.analyzer.DragAnalysis`) attach
    dynamic evidence for DRAG008; without a snapshot that rule is
    silent.
    """
    context = context or AnalysisContext(program, main_class)
    if snapshot is not None:
        context.snapshot = snapshot
    if drag is not None:
        context.drag = drag
    manager = standard_pass_manager(context, telemetry=telemetry)
    result = LintResult(program_path=program_path, main_class=main_class)
    if telemetry is None:
        return manager.run_all(result, rules=rules)
    with telemetry.span("lint.run_all", category="lint", main=main_class):
        manager.run_all(result, rules=rules)
    for rule_id, count in sorted(result.counts().items()):
        telemetry.record_lint_diagnostics(rule_id, count)
    return result


def lint_file(
    path: str,
    main_class: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
    telemetry=None,
    snapshot=None,
    drag=None,
) -> LintResult:
    """Load, link, and lint a ``.mj`` source file."""
    from repro.runtime.library import link

    with open(path, "r", encoding="utf-8") as f:
        source = f.read()
    program = link(source)
    if main_class is None:
        main_class = detect_main_class(program)
    return lint_program(
        program, main_class, program_path=path, rules=rules, telemetry=telemetry,
        snapshot=snapshot, drag=drag,
    )
