"""Shared test helpers: compile and run mini-Java snippets."""

import pytest

from repro.mjava.compiler import compile_program
from repro.runtime.engine import create_vm
from repro.runtime.library import link


def compile_app(source, main_class="Main", library_overrides=None):
    return compile_program(
        link(source, library_overrides=library_overrides), main_class=main_class
    )


def run_source(source, args=None, main_class="Main", max_heap=None, **interp_kwargs):
    """Compile + run; returns (ProgramResult, Interpreter).

    Goes through the engine facade, so it runs the default engine
    (compiled); the engine-equivalence tests name the baseline.
    """
    program = compile_app(source, main_class)
    interp = create_vm(program, max_heap=max_heap, **interp_kwargs)
    result = interp.run(args or [])
    return result, interp


def run_main_body(body, args=None, helpers="", **kwargs):
    """Wrap statements in a main method and run them."""
    source = (
        "class Main { public static void main(String[] args) { "
        + body
        + " } "
        + helpers
        + " }"
    )
    return run_source(source, args, **kwargs)


@pytest.fixture
def run():
    return run_source


@pytest.fixture
def run_body():
    return run_main_body
