"""repro — a reproduction of "Heap Profiling for Space-Efficient Java"
(Shaham, Kolodner, Sagiv; PLDI 2001).

The package provides, end to end:

* a mini-Java language with a compiler and virtual machine
  (:mod:`repro.mjava`, :mod:`repro.runtime`) standing in for the
  paper's instrumented Sun JVM 1.2;
* the two-phase drag profiler — the paper's contribution
  (:mod:`repro.core`);
* the Section-5 static analyses (:mod:`repro.analysis`);
* the three drag-reducing transformations, applied by a verified
  profile-driven optimization pipeline (:mod:`repro.transform`);
* the nine benchmark programs and the harness regenerating every table
  and figure of the evaluation (:mod:`repro.benchmarks`).

Quickstart::

    from repro import profile_source, DragAnalysis, drag_report

    result = profile_source(source, "Main", interval_bytes=100 * 1024)
    analysis = DragAnalysis(result.records)
    print(drag_report(analysis, top=10, program=result.program))
"""

from repro.core import (
    DragAnalysis,
    HeapProfiler,
    LifetimePattern,
    ObjectRecord,
    ProfileResult,
    classify_group,
    curve_from_records,
    drag_report,
    integral_mb2,
    iter_log,
    profile_program,
    profile_source,
    read_log,
    savings,
    write_log,
)
from repro.stream import StreamingDragAnalysis, watch_log
from repro.mjava.compiler import compile_program
from repro.mjava.parser import parse_program
from repro.mjava.pretty import pretty_print
from repro.runtime.compiled import CompiledInterpreter
from repro.runtime.engine import Engine, VMConfig, create_vm, run_program
from repro.runtime.interpreter import Interpreter
from repro.runtime.library import link
from repro.transform import OptimizationPipeline

__version__ = "1.0.0"

__all__ = [
    "DragAnalysis",
    "HeapProfiler",
    "LifetimePattern",
    "ObjectRecord",
    "ProfileResult",
    "classify_group",
    "curve_from_records",
    "drag_report",
    "integral_mb2",
    "profile_program",
    "profile_source",
    "read_log",
    "iter_log",
    "savings",
    "write_log",
    "StreamingDragAnalysis",
    "watch_log",
    "compile_program",
    "parse_program",
    "pretty_print",
    "Interpreter",
    "CompiledInterpreter",
    "Engine",
    "VMConfig",
    "create_vm",
    "run_program",
    "link",
    "OptimizationPipeline",
    "__version__",
]
