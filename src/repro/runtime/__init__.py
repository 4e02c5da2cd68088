"""The mini-Java virtual machine: heap, garbage collector, interpreter.

This package is the stand-in for Sun's classic JVM 1.2 that the paper
instrumented. It reproduces the properties drag measurement depends on:

* a handle-indirected heap whose object sizes include header and 8-byte
  alignment padding,
* reachability-based mark-sweep GC with finalization and *deep GC*
  (collect → finalize → collect),
* an interpreter that can report every *object use* event — getfield,
  putfield, invokevirtual, monitorenter/exit, array access, and native
  handle dereference — to an attached profiler.

Execution is layered (see :mod:`repro.runtime.engine`): the
``baseline`` engine is the classic if/elif interpreter, the
``compiled`` engine pre-translates each method into handler closures
with profiler use-stamping specialized in or out, and :class:`Engine` /
:class:`VMConfig` are the facade every caller wires VMs through.
"""

from repro.runtime.heap import Heap
from repro.runtime.compiled import CompiledInterpreter
from repro.runtime.engine import (
    DEFAULT_ENGINE,
    ENGINES,
    Engine,
    VMConfig,
    create_vm,
    run_program,
)
from repro.runtime.interpreter import Interpreter
from repro.runtime.library import LIBRARY_SOURCE, library_program, link

__all__ = [
    "Heap",
    "Interpreter",
    "CompiledInterpreter",
    "Engine",
    "VMConfig",
    "create_vm",
    "run_program",
    "ENGINES",
    "DEFAULT_ENGINE",
    "LIBRARY_SOURCE",
    "library_program",
    "link",
]
