"""Static analyses (§5) that justify the space-saving transformations.

The paper identifies the analyses an optimizing compiler would need to
automate its manual rewrites:

* usage analysis — variables/fields set but never used (§5.1),
* indirect-usage analysis — objects none of whose references is ever
  dereferenced (§5.1),
* liveness analysis for locals, and the harder array-element liveness
  (§5.1, §5.2),
* minimal code insertion for lazy allocation (§5.1),
* call-graph dependence — unreachable methods invalidate "possible
  uses" (§5.4),
* exception analysis — removed code must not throw exceptions the
  program could catch (§5.5),

plus the call-graph information the authors got from JAN (§3.2).

Each graph fact has one owner. :class:`~repro.analysis.callgraph.CallGraph`
is the only call resolver (CHA families, exact targets, key → method)
and resolves each call site once; the class table
(:class:`repro.mjava.sema.ClassTable`) owns the class hierarchy;
:func:`~repro.analysis.dataflow.solve` is the one intraprocedural
solver (forward or backward, may or must);
:func:`~repro.analysis.callgraph.call_graph_fixpoint` is the one
interprocedural worklist, seeded callee-first or caller-first; and
:mod:`repro.snapshot.dominators` holds the one DFS order and the one
dominator routine, shared with the heap-snapshot analysis.
"""

from repro._lazy import lazy_exports

# Eager: liveness() shares its name with its submodule, which would be
# bound over a lazy export once loaded.
from repro.analysis.liveness import LivenessResult, liveness

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.cfg": ("ControlFlowGraph", "build_cfg"),
    "repro.analysis.dataflow": ("solve",),
    "repro.analysis.usage": ("FieldUsage", "field_usage"),
    "repro.analysis.callgraph": ("CallGraph", "call_graph_fixpoint"),
    "repro.analysis.exceptions": ("ThrownExceptions",),
    "repro.analysis.purity": ("ctor_purity", "PurityResult"),
    "repro.analysis.array_liveness": ("logical_size_pairs", "removal_points"),
    "repro.analysis.indirect_usage": ("indirectly_unused_fields",),
    "repro.analysis.lazy_points": ("FirstUseSite", "first_use_sites"),
})

__all__ = [
    "ControlFlowGraph",
    "build_cfg",
    "solve",
    "LivenessResult",
    "liveness",
    "FieldUsage",
    "field_usage",
    "CallGraph",
    "call_graph_fixpoint",
    "ThrownExceptions",
    "ctor_purity",
    "PurityResult",
    "logical_size_pairs",
    "removal_points",
    "indirectly_unused_fields",
    "FirstUseSite",
    "first_use_sites",
]
