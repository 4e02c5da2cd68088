"""RetainerCutPlanner end-to-end: the snapshot-enabled pipeline plans
dominating-reference cuts from DRAG008 evidence, differentially
verifies them, and keeps only the verified wins."""

import pytest

from repro.benchmarks import get_benchmark
from repro.mjava.pretty import pretty_print
from repro.runtime.library import link
from repro.transform.patch import APPLIED
from repro.transform.pipeline import OptimizationPipeline
from repro.transform.planners import RetainerCutPlanner, default_strategies


@pytest.fixture(scope="module")
def strings_result():
    bench = get_benchmark("strings")
    pipeline = OptimizationPipeline(
        link(bench.original),
        bench.main_class,
        args=bench.primary_args,
        interval_bytes=bench.interval_bytes,
        strategies=[RetainerCutPlanner()],
        snapshot=True,
    )
    return bench, pipeline.run()


def test_plans_and_verifies_container_cuts(strings_result):
    """The acceptance criterion: at least one retainer-cut patch is
    planned from snapshot evidence and survives differential
    verification end-to-end."""
    _bench, result = strings_result
    applied = result.applied()
    assert applied, "no retainer-cut patch survived verification"
    for outcome in applied:
        patch = outcome.patch
        assert patch.strategy == "retainer-cut"
        assert patch.kind == "assign-null-heap-field"
        assert outcome.verification is not None and outcome.verification.ok
    fields = {o.patch.params["field_name"] for o in applied}
    assert "sessions" in fields


def test_verified_cut_reduces_drag(strings_result):
    _bench, result = strings_result
    assert result.drag_after is not None
    assert result.drag_after < result.drag_before
    # Cutting the registry after its last use frees the whole session
    # table for the export phase: the drop is large, not marginal.
    assert result.drag_after < 0.6 * result.drag_before


def test_revised_source_contains_the_cut(strings_result):
    _bench, result = strings_result
    source = pretty_print(result.revised)
    assert "registry.sessions = null;" in source


def test_retainer_cut_not_in_default_strategies():
    """Snapshot-driven planning is strictly opt-in: the static-only
    pipeline's plan (pinned by the db/euler goldens) is unchanged."""
    assert not any(
        isinstance(s, RetainerCutPlanner) for s in default_strategies()
    )
    bench = get_benchmark("strings")
    pipeline = OptimizationPipeline(
        link(bench.original), bench.main_class, snapshot=True
    )
    assert any(isinstance(s, RetainerCutPlanner) for s in pipeline.strategies)
