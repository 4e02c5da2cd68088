"""The verified optimization pipeline (§3.2's loop, automated).

One :class:`OptimizationPipeline` run is the paper's workflow:

1. **Profile** the program (phase 1 + 2) through the engine facade.
2. **Plan**: each :class:`~repro.transform.planners.Transformation`
   strategy joins the drag ranking with the lint diagnostics
   (DRAG001–003) via the shared
   :class:`~repro.lint.passes.AnalysisContext` and emits structured
   :class:`~repro.transform.patch.Patch` objects.
3. **Schedule** patches by (priority, drag) — dead-code removal first,
   then per-site patches in decreasing measured drag, the §3.4 order.
4. **Apply** each patch purely (:mod:`repro.transform.apply`).
5. **Verify** (``verify=True``): re-run the revised program and demand
   stdout-identical output and non-increasing total drag
   (:mod:`repro.transform.verify`); a failing patch is rolled back,
   recorded, and the pipeline continues with the last accepted AST.
6. **Repeat** until a cycle applies nothing or ``max_cycles`` is hit.

``verify=False`` runs the same cycle without the differential runs.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import List, Optional, Sequence

from repro.errors import TransformError
from repro.core.patterns import LifetimePattern, classify_group
from repro.mjava import ast
from repro.transform.apply import apply_patch
from repro.transform.patch import (
    APPLIED,
    FAILED,
    ROLLED_BACK,
    Patch,
    PatchOutcome,
    PlannedSkip,
    describe_plan,
)
from repro.transform.planners import (
    PlanningContext,
    Transformation,
    default_strategies,
)
from repro.transform.verify import ReferenceRun, verify_revision


class CycleReport:
    """Everything one profile→plan→apply(→verify) cycle did.

    ``entries`` holds :class:`PatchOutcome` and :class:`PlannedSkip`
    objects in *planning* order (drag rank), which is also the
    :meth:`summary` order; application order is the scheduler's
    (priority, drag) order.
    """

    def __init__(self, program_ast: ast.Program) -> None:
        self.program_ast = program_ast
        self.entries: List[object] = []
        self.revised: ast.Program = program_ast
        self.drag_before: int = 0
        self.drag_after: Optional[int] = None  # None when verify is off
        self.reference: Optional[ReferenceRun] = None

    # -- views -------------------------------------------------------------

    @property
    def outcomes(self) -> List[PatchOutcome]:
        return [e for e in self.entries if isinstance(e, PatchOutcome)]

    @property
    def skips(self) -> List[PlannedSkip]:
        return [e for e in self.entries if isinstance(e, PlannedSkip)]

    @property
    def patches(self) -> List[Patch]:
        return [o.patch for o in self.outcomes]

    def applied(self) -> List[PatchOutcome]:
        return [o for o in self.outcomes if o.status == APPLIED]

    def rolled_back(self) -> List[PatchOutcome]:
        return [o for o in self.outcomes if o.status == ROLLED_BACK]

    def failed(self) -> List[PatchOutcome]:
        return [o for o in self.outcomes if o.status == FAILED]

    @property
    def applied_count(self) -> int:
        return len(self.applied())

    @property
    def drag_saved(self) -> int:
        if self.drag_after is None:
            return 0
        return self.drag_before - self.drag_after

    def describe_plan(self) -> str:
        return describe_plan(self.entries)

    def summary(self) -> str:
        """One line per skip and per patch outcome, in planning order;
        the program-wide dead-code patch gets one line per never-used
        site it covers."""
        lines = []
        for entry in self.entries:
            if isinstance(entry, PlannedSkip):
                rows = [(False, entry.strategy, entry.site)]
            else:
                patch = entry.patch
                sites = (
                    patch.params.get("sites", [patch.site])
                    if patch.kind == "remove-dead-allocations"
                    else [patch.site]
                )
                rows = [(entry.status == APPLIED, patch.strategy, site) for site in sites]
            for applied, strategy, site in rows:
                status = "APPLIED" if applied else "skipped"
                lines.append(
                    f"{status:8s} {strategy or '-':18s} {str(site):40s} {entry.detail}"
                )
        return "\n".join(lines)


class PipelineResult:
    """The fixpoint run: final AST plus one report per cycle."""

    def __init__(self, revised: ast.Program, cycles: List[CycleReport]) -> None:
        self.revised = revised
        self.cycles = cycles

    def applied(self) -> List[PatchOutcome]:
        return [o for cycle in self.cycles for o in cycle.applied()]

    def rolled_back(self) -> List[PatchOutcome]:
        return [o for cycle in self.cycles for o in cycle.rolled_back()]

    @property
    def drag_before(self) -> int:
        return self.cycles[0].drag_before if self.cycles else 0

    @property
    def drag_after(self) -> Optional[int]:
        for cycle in reversed(self.cycles):
            if cycle.drag_after is not None:
                return cycle.drag_after
        return None


class OptimizationPipeline:
    """Plan, schedule, apply, and (optionally) verify §3.3 patches."""

    def __init__(
        self,
        program_ast: ast.Program,
        main_class: str,
        args: Optional[List[str]] = None,
        interval_bytes: int = 100 * 1024,
        top: int = 12,
        min_drag_share: float = 0.01,
        max_cycles: int = 1,
        verify: bool = True,
        drag_tolerance: float = 0.0,
        engine: Optional[str] = None,
        strategies: Optional[Sequence[Transformation]] = None,
        extra_patches: Sequence[Patch] = (),
        telemetry=None,
        snapshot: bool = False,
    ) -> None:
        self.program_ast = program_ast
        self.main_class = main_class
        self.args = args or []
        self.interval_bytes = interval_bytes
        self.top = top
        self.min_drag_share = min_drag_share
        self.max_cycles = max_cycles
        self.verify = verify
        self.drag_tolerance = drag_tolerance
        self.engine = engine
        # Optional repro.obs.Telemetry: per-cycle plan/apply/verify
        # spans plus patch-outcome and drag counters.
        self.telemetry = telemetry
        self.strategies = list(strategies) if strategies is not None else default_strategies()
        # Opt-in snapshot mode: capture heap snapshots during the
        # reference profile, attach the dominator analysis to the lint
        # context (enabling DRAG008), and plan dominating-reference
        # cuts. Off by default so the static-only plan is unchanged.
        self.snapshot = snapshot
        if snapshot:
            from repro.transform.planners import RetainerCutPlanner

            if not any(isinstance(s, RetainerCutPlanner) for s in self.strategies):
                self.strategies.append(RetainerCutPlanner())
        # Extra pre-planned patches injected into the first cycle —
        # the rollback tests use this to feed the verifier an unsound
        # rewrite; they are scheduled after the planned patches.
        self.extra_patches = list(extra_patches)

    # -- one cycle ---------------------------------------------------------

    def plan(self, program_ast: Optional[ast.Program] = None) -> CycleReport:
        """Profile and plan without applying (``--dry-run``)."""
        return self.run_cycle(
            program_ast if program_ast is not None else self.program_ast,
            extra_patches=self.extra_patches,
            dry_run=True,
        )

    def run_cycle(
        self,
        program_ast: ast.Program,
        context=None,
        lint=None,
        reference: Optional[ReferenceRun] = None,
        extra_patches: Sequence[Patch] = (),
        dry_run: bool = False,
    ) -> CycleReport:
        """One profile→plan→apply(→verify) cycle over ``program_ast``.

        ``context``/``lint`` let a caller share its own analysis
        artifacts for ``program_ast`` (the appliers reuse ``context``
        until the first patch lands); ``reference`` lets the fixpoint
        loop reuse the previous cycle's accepted verification run
        instead of re-profiling the same AST.
        """
        from repro.core.profiler import profile_program
        from repro.lint.passes import AnalysisContext

        telemetry = self.telemetry

        def span(name, **args):
            if telemetry is None:
                return nullcontext()
            return telemetry.span(name, category="optimize", **args)

        if context is None:
            context = AnalysisContext(program_ast, self.main_class)
        # Snapshot mode profiles *first*: the reference run doubles as
        # the capture run, and its dominator analysis plus drag ranking
        # become lint evidence (DRAG008) before the linter plans.
        if self.snapshot and lint is None and reference is None:
            from repro.snapshot import SnapshotRecorder, analyze_snapshot

            recorder = SnapshotRecorder(telemetry=telemetry)
            with span("optimize.profile"):
                profile = profile_program(
                    context.compiled,
                    self.args,
                    interval_bytes=self.interval_bytes,
                    engine=self.engine,
                    telemetry=telemetry,
                    snapshotter=recorder,
                )
                reference = ReferenceRun.from_profile(profile)
            if recorder.snapshots:
                # Analyze the heap at its fattest: the capture with the
                # most reachable bytes shows retention at its worst.
                peak = max(recorder.snapshots, key=lambda s: s.total_bytes)
                context.snapshot = analyze_snapshot(peak)
                context.drag = reference.analysis
        if lint is None:
            from repro.lint import lint_program

            lint = lint_program(
                program_ast, self.main_class, context=context, telemetry=telemetry
            )
        if reference is None:
            with span("optimize.profile"):
                profile = profile_program(
                    context.compiled,
                    self.args,
                    interval_bytes=self.interval_bytes,
                    engine=self.engine,
                    telemetry=telemetry,
                )
                reference = ReferenceRun.from_profile(profile)
        profile = reference.profile
        analysis = reference.analysis

        report = CycleReport(program_ast)
        report.drag_before = analysis.total_drag
        report.reference = reference

        # -- plan ---------------------------------------------------------
        with span("optimize.plan", drag_before=report.drag_before):
            pctx = PlanningContext(
                program_ast, self.main_class, context, lint, profile, analysis,
                self.interval_bytes, self.top, self.min_drag_share,
            )
            for strategy in self.strategies:
                for entry in strategy.plan_program(pctx):
                    report.entries.append(self._wrap(entry))
            pattern_map = {}
            for strategy in self.strategies:
                for pattern in strategy.patterns:
                    pattern_map.setdefault(pattern, strategy)
            for group in analysis.sorted_nested(self.top):
                if analysis.drag_share(group) < self.min_drag_share:
                    continue
                pattern = classify_group(group, interval_bytes=self.interval_bytes)
                if pattern is LifetimePattern.ALL_NEVER_USED:
                    continue  # the program-wide dead-code patch covers these
                strategy = pattern_map.get(pattern)
                if strategy is None:
                    report.entries.append(
                        PlannedSkip(group.key, pattern, None,
                                    "no transformation for this pattern (§3.4 pattern 4/unclassified)")
                    )
                    continue
                for entry in strategy.plan_group(pctx, group, pattern):
                    report.entries.append(self._wrap(entry))
            for patch in extra_patches:
                report.entries.append(PatchOutcome(patch))

        if dry_run:
            if telemetry is not None:
                for outcome in report.outcomes:
                    telemetry.record_patch("planned")
            report.drag_after = report.drag_before if self.verify else None
            return report

        # -- schedule + apply (+ verify) ----------------------------------
        # Stable sort: priority class first (dead-code removal runs
        # program-wide before per-site patches), then measured drag —
        # which is also the planning order, so report order is stable.
        schedule = sorted(
            report.outcomes, key=lambda o: (o.patch.priority, -o.patch.drag)
        )
        current, current_context = program_ast, context
        for outcome in schedule:
            if current_context is None:
                current_context = AnalysisContext(current, self.main_class)
            with span("optimize.apply", kind=outcome.patch.kind):
                try:
                    candidate, detail = apply_patch(current, outcome.patch, current_context)
                except TransformError as exc:
                    outcome.status = FAILED
                    outcome.detail = str(exc)
                    candidate = None
            if candidate is None:
                if telemetry is not None:
                    telemetry.record_patch("failed")
                continue
            if not self.verify:
                current, current_context = candidate, None
                outcome.status = APPLIED
                outcome.detail = detail
                if telemetry is not None:
                    telemetry.record_patch("applied")
                continue
            with span("optimize.verify", kind=outcome.patch.kind):
                result, run = verify_revision(
                    reference,
                    candidate,
                    self.main_class,
                    self.args,
                    interval_bytes=self.interval_bytes,
                    engine=self.engine,
                    drag_tolerance=self.drag_tolerance,
                )
            outcome.verification = result
            if result.ok:
                current, current_context = candidate, None
                reference = run
                outcome.status = APPLIED
                outcome.detail = detail
            else:
                outcome.status = ROLLED_BACK
                outcome.detail = f"{detail} [rolled back: {result.detail}]"
            if telemetry is not None:
                telemetry.record_patch(
                    "applied" if result.ok else "rolled_back"
                )

        report.revised = current
        report.reference = reference
        report.drag_after = reference.total_drag if self.verify else None
        if telemetry is not None:
            telemetry.record_cycle(report.drag_before, report.drag_after)
        return report

    @staticmethod
    def _wrap(entry):
        return PatchOutcome(entry) if isinstance(entry, Patch) else entry

    # -- the fixpoint loop -------------------------------------------------

    def run(self) -> PipelineResult:
        """§3.2: repeat the cycle on the revised program until no
        transformation applies (or ``max_cycles``)."""
        current = self.program_ast
        cycles: List[CycleReport] = []
        reference: Optional[ReferenceRun] = None
        telemetry = self.telemetry
        for index in range(self.max_cycles):
            cycle_span = (
                nullcontext()
                if telemetry is None
                else telemetry.span("optimize.cycle", category="optimize", index=index)
            )
            with cycle_span:
                report = self.run_cycle(
                    current,
                    reference=reference,
                    extra_patches=self.extra_patches if index == 0 else (),
                )
            cycles.append(report)
            current = report.revised
            # The accepted verification run already profiles `current`;
            # the next cycle plans from it instead of re-profiling.
            reference = report.reference if self.verify else None
            if not report.applied_count:
                break
        return PipelineResult(current, cycles)
