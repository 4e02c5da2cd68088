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

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.analyzer": ("DragAnalysis",),
    "repro.core.integrals": ("curve_from_records", "integral_mb2", "savings"),
    "repro.core.logfile": ("iter_log", "read_log"),
    "repro.core.patterns": ("LifetimePattern", "classify_group"),
    "repro.core.profiler": (
        "HeapProfiler", "ProfileResult", "profile_program", "profile_source",
    ),
    "repro.core.report": ("drag_report",),
    "repro.core.trailer": ("ObjectRecord",),
    "repro.stream.aggregate": ("StreamingDragAnalysis",),
    "repro.stream.watch": ("watch_log",),
    "repro.mjava.compiler": ("compile_program",),
    "repro.mjava.parser": ("parse_program",),
    "repro.mjava.pretty": ("pretty_print",),
    "repro.runtime.compiled": ("CompiledInterpreter",),
    "repro.runtime.engine": ("Engine", "VMConfig", "create_vm", "run_program"),
    "repro.runtime.interpreter": ("Interpreter",),
    "repro.runtime.library": ("link",),
    "repro.transform.pipeline": ("OptimizationPipeline",),
})

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
