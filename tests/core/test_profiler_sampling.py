"""End-to-end sampling through the profiler hooks.

Two guarantees the refactor pins down:

* ``--sample-bytes 1`` is *bit-identical* to an unsampled run: same
  records, same v2 bytes, no matter the seed — the weight machinery
  costs a full-rate profile literally nothing.
* Sampled runs produce an exact *subset* of the full run's record
  stream (the pairing invariant: a freed object is logged iff its
  allocation was sampled), with Horvitz-Thompson weights whose totals
  estimate the full run.
"""

import io

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.benchmarks.runner import compile_benchmark
from repro.core.analyzer import DragAnalysis
from repro.core.profiler import profile_program
from repro.stream.codec import V2FrameEncoder


@pytest.fixture(scope="module")
def bench_programs():
    out = {}
    for name in ("db", "euler"):
        bench = get_benchmark(name)
        out[name] = (bench, compile_benchmark(bench, revised=False))
    return out


def run(bench, program, **kwargs):
    return profile_program(
        program, bench.args_for("primary"), interval_bytes=bench.interval_bytes, **kwargs
    )


def v2_bytes(profile):
    buf = io.BytesIO()
    enc = V2FrameEncoder(buf, metadata=None)
    for record in profile.records:
        enc.write_record(record)
    for sample in profile.samples:
        enc.write_sample(sample)
    enc.write_end(end_time=profile.end_time)
    return buf.getvalue()


@pytest.mark.parametrize("name", ["db", "euler"])
def test_sample_bytes_one_is_bit_identical(bench_programs, name):
    bench, program = bench_programs[name]
    full = run(bench, program)
    one = run(bench, program, sample_bytes=1, seed=99)
    assert len(one.records) == len(full.records)
    assert all(r.weight == 1.0 for r in one.records)
    assert v2_bytes(one) == v2_bytes(full)


@pytest.mark.parametrize("name", ["db", "euler"])
def test_no_sampler_constructed_at_full_rate(bench_programs, name):
    bench, program = bench_programs[name]
    assert run(bench, program, sample_bytes=1).profiler.sampler is None
    assert run(bench, program).profiler.sampler is None


@pytest.mark.parametrize("name", ["db", "euler"])
def test_sampled_records_are_subset_with_exact_pairing(bench_programs, name):
    """Every sampled record matches its full-run twin field-for-field
    except the weight — the trailer-as-marker design means a sampled
    alloc's uses and free land on the same object, and an unsampled
    alloc contributes nothing at all."""
    bench, program = bench_programs[name]
    full = run(bench, program)
    samp = run(bench, program, sample_bytes=400, seed=0)
    assert 0 < len(samp.records) < len(full.records)
    assert samp.run_result.stdout == full.run_result.stdout
    assert samp.end_time == full.end_time
    by_handle = {r.handle: r for r in full.records}
    for record in samp.records:
        twin = by_handle.get(record.handle)
        assert twin is not None, f"sampled handle {record.handle} not in full run"
        got, want = record.to_dict(), twin.to_dict()
        got.pop("weight", None)
        assert got == want
    # and the sampled handles appear in the same order they do in full
    order = {r.handle: i for i, r in enumerate(full.records)}
    positions = [order[r.handle] for r in samp.records]
    assert positions == sorted(positions)


@pytest.mark.parametrize("name", ["db", "euler"])
def test_weighted_totals_estimate_full_run(bench_programs, name):
    bench, program = bench_programs[name]
    full_analysis = DragAnalysis(run(bench, program).records)
    samp_analysis = DragAnalysis(
        run(bench, program, sample_bytes=400, seed=0).records
    )
    assert samp_analysis.sampled
    assert 0 < samp_analysis.effective_sample_rate < 1
    assert samp_analysis.est_total_bytes == pytest.approx(
        full_analysis.total_bytes, rel=0.15
    )
    assert samp_analysis.est_total_drag == pytest.approx(
        full_analysis.total_drag, rel=0.15
    )


@pytest.mark.parametrize("name", ["db", "euler"])
def test_sampling_is_seed_deterministic(bench_programs, name):
    bench, program = bench_programs[name]
    a = run(bench, program, sample_bytes=400, seed=5)
    b = run(bench, program, sample_bytes=400, seed=5)
    c = run(bench, program, sample_bytes=400, seed=6)
    assert v2_bytes(a) == v2_bytes(b)
    assert [r.handle for r in a.records] != [r.handle for r in c.records]


def test_full_rate_analysis_is_unsampled(bench_programs):
    bench, program = bench_programs["db"]
    analysis = DragAnalysis(run(bench, program).records)
    assert not analysis.sampled
    assert analysis.effective_sample_rate == 1.0
    assert analysis.est_total_drag == analysis.total_drag
    assert isinstance(analysis.est_total_drag, int)
