"""The layering holds: static analyses and the linter sit below the
rewriter. No module under ``repro.analysis`` or ``repro.lint`` imports
``repro.transform`` — at module level or inside a function — so every
analysis fact the appliers use is computed under ``repro.analysis``."""

import ast
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).parent
LOWER_LAYERS = ("analysis", "lint")


def imported_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def modules_of(layer):
    return sorted((PACKAGE / layer).rglob("*.py"))


@pytest.mark.parametrize("layer", LOWER_LAYERS)
def test_layer_has_modules(layer):
    assert modules_of(layer)


@pytest.mark.parametrize("layer", LOWER_LAYERS)
def test_lower_layers_do_not_import_transform(layer):
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line} imports {name}"
        for path in modules_of(layer)
        for line, name in imported_modules(path)
        if name == "repro.transform" or name.startswith("repro.transform.")
    ]
    assert not offenders, offenders
