"""Every package's public names resolve, though each ``__init__`` now
imports its submodules only when a name is first read."""

import importlib
import pkgutil
from types import ModuleType

import pytest

PACKAGES = (
    "repro",
    "repro.core",
    "repro.stream",
    "repro.serve",
    "repro.runtime",
    "repro.transform",
    "repro.analysis",
    "repro.snapshot",
    "repro.bytecode",
    "repro.mjava",
    "repro.benchmarks",
    "repro.obs",
    "repro.lint",
)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve_through_getattr(name):
    package = importlib.import_module(name)
    missing = [export for export in package.__all__ if not hasattr(package, export)]
    assert not missing, missing


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_every_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_lists_every_name(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_module(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"module '{name}' has no attribute"):
        package.no_such_export
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_export", {})


def test_exports_are_the_defining_objects():
    import repro
    import repro.core
    from repro.core.analyzer import DragAnalysis
    from repro.runtime.engine import Engine

    assert repro.DragAnalysis is DragAnalysis
    assert repro.core.DragAnalysis is DragAnalysis
    assert repro.Engine is Engine


def test_heap_sample_keeps_its_profiler_path():
    from repro.core.profiler import HeapSample
    from repro.core.trailer import HeapSample as defined

    assert HeapSample is defined


def test_readme_quickstart():
    from repro import profile_source, DragAnalysis, drag_report

    source = """
    class Main {
        public static void main(String[] args) {
            char[] wasted = new char[5000];
            for (int i = 0; i < 40; i = i + 1) { char[] junk = new char[200]; }
            wasted[0] = 'x';
        }
    }
    """
    result = profile_source(source, "Main", interval_bytes=4096)
    analysis = DragAnalysis(result.records)
    assert "Main.main" in drag_report(analysis, top=10, program=result.program)


@pytest.mark.parametrize("name", PACKAGES)
def test_no_export_is_hidden_by_a_submodule(name):
    """Loading a submodule binds it on its package; an export of the
    same name must not be turned into that module."""
    package = importlib.import_module(name)
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{name}.{info.name}")
    modules = [e for e in package.__all__ if isinstance(getattr(package, e), ModuleType)]
    assert not modules, modules


@pytest.mark.parametrize("name, removed", [
    ("repro", ("write_log",)),
    ("repro.core", ("write_log", "LogWriter")),
    ("repro.stream", ("open_log_writer",)),
])
def test_the_v1_log_writers_are_not_exported(name, removed):
    """``profile --log`` writes v2 only; v1 logs are read, never written."""
    package = importlib.import_module(name)
    assert not set(removed) & set(package.__all__)
    for export in removed:
        assert not hasattr(package, export)
