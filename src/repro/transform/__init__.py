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

from repro.transform.rewriter import clone_program, clone_node
from repro.transform.patch import Patch, PatchOutcome, PlannedSkip
from repro.transform.apply import APPLIERS, apply_patch, apply_patches
from repro.transform.planners import (
    AssignNullPlanner,
    DeadCodePlanner,
    LazyAllocPlanner,
    PlanningContext,
    Transformation,
    default_strategies,
)
from repro.transform.verify import (
    ReferenceRun,
    VerificationResult,
    run_reference,
    verify_revision,
)
from repro.transform.pipeline import (
    CycleReport,
    OptimizationPipeline,
    PipelineResult,
)

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
