"""The optimize gate (CI step): on db and euler the verified pipeline
must (1) apply the same transformation set as the unverified pipeline —
byte-identical revised source, since every planned patch passes
differential verification — (2) verify every applied patch, and (3)
strictly decrease total drag. The same invariants hold over the full
three-cycle fixpoint loop.

The test names keep the ids they had when the unverified side was the
Advisor, which the unverified pipeline replaces."""

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.mjava.pretty import pretty_print
from repro.runtime.library import link
from repro.transform import OptimizationPipeline


@pytest.fixture(scope="module", params=["db", "euler"])
def both(request):
    """(unverified, verified) pipeline results for one benchmark."""
    bench = get_benchmark(request.param)

    def run(verify):
        return OptimizationPipeline(
            link(bench.original), bench.main_class, bench.primary_args,
            interval_bytes=bench.interval_bytes, verify=verify,
        ).run()

    return run(False), run(True)


def test_verified_pipeline_matches_advisor_and_decreases_drag(both):
    unverified, result = both

    # (1) Same transformation set: every planned patch survives
    # verification, so the revised sources are byte-identical.
    assert pretty_print(result.revised) == pretty_print(unverified.revised)
    unverified_applied = sorted(o.patch.strategy for o in unverified.applied())
    pipeline_applied = sorted(
        o.patch.strategy for o in result.applied()
    )
    assert pipeline_applied == unverified_applied
    assert not result.rolled_back()

    # (2) Every applied patch passed the differential check.
    for outcome in result.applied():
        assert outcome.verification is not None
        assert outcome.verification.ok, outcome.detail
        assert outcome.verification.stdout_ok
        assert outcome.verification.drag_ok

    # (3) Total drag strictly decreases end to end.
    assert result.drag_after is not None
    assert result.drag_after < result.drag_before


def test_pipeline_report_subsumes_advisor_report(both):
    unverified, result = both
    # The verified cycle reports the same entries with the same details
    # (order and text): verification changed no outcome on these inputs.
    assert result.cycles[0].summary() == unverified.cycles[0].summary()


@pytest.mark.parametrize("name", ["db", "euler"])
def test_three_cycle_pipeline_verifies_every_patch_and_decreases_drag(name):
    bench = get_benchmark(name)
    result = OptimizationPipeline(
        link(bench.original), bench.main_class, bench.primary_args,
        interval_bytes=bench.interval_bytes, verify=True, max_cycles=3,
    ).run()
    assert result.applied()
    for outcome in result.applied():
        assert outcome.verification is not None and outcome.verification.ok, outcome.detail
    assert not result.rolled_back()
    assert result.drag_after is not None
    assert result.drag_after < result.drag_before
