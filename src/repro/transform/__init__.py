"""The three drag-reducing program transformations (§3.3) and the
verified optimization pipeline that plans and applies them (§3.2/§3.4).

All transformations are source-to-source on the mini-Java AST, each
validated by the Section-5 static analyses before being applied:

* assigning null to a dead reference (local, field, or the vector
  logical-size array-element case),
* dead-code removal of allocations of never-used objects,
* lazy allocation of rarely-used objects.

The layer is split plan/apply:

* :mod:`~repro.transform.planners` — strategies emitting structured
  :class:`~repro.transform.patch.Patch` objects from profile drag
  groups joined with lint diagnostics;
* :mod:`~repro.transform.apply` — pure patch application
  (:func:`apply_patches`), the one place programs are rewritten;
* :mod:`~repro.transform.verify` — differential verification (stdout
  identical, drag non-increasing) through the engine facade;
* :mod:`~repro.transform.pipeline` — the §3.2 fixpoint loop with
  per-patch rollback.

The analysis half of each transformation lives in
:mod:`repro.analysis`, shared with the linter.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.transform.rewriter": ("clone_program", "clone_node"),
    "repro.transform.patch": ("Patch", "PatchOutcome", "PlannedSkip"),
    "repro.transform.apply": ("APPLIERS", "apply_patch", "apply_patches"),
    "repro.transform.planners": (
        "AssignNullPlanner", "DeadCodePlanner", "LazyAllocPlanner",
        "PlanningContext", "Transformation", "default_strategies",
    ),
    "repro.transform.verify": (
        "ReferenceRun", "VerificationResult", "run_reference", "verify_revision",
    ),
    "repro.transform.pipeline": (
        "CycleReport", "OptimizationPipeline", "PipelineResult",
    ),
})

__all__ = [
    "clone_program",
    "clone_node",
    "Patch",
    "PatchOutcome",
    "PlannedSkip",
    "APPLIERS",
    "apply_patch",
    "apply_patches",
    "Transformation",
    "PlanningContext",
    "DeadCodePlanner",
    "LazyAllocPlanner",
    "AssignNullPlanner",
    "default_strategies",
    "ReferenceRun",
    "VerificationResult",
    "run_reference",
    "verify_revision",
    "CycleReport",
    "OptimizationPipeline",
    "PipelineResult",
]
