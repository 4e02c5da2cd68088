"""Microbenchmark: the streaming timeline must ride along for ~free.

A :class:`TimelineSink` attached to a profiled run (library API; the
CLI renders timelines from the log with ``repro timeline``) costs one
O(1) ``TimelineBuilder.add`` per reclaimed object, on top of the
trailer bookkeeping the profiler already does.  This bench enforces
the budget — instr/sec with the sink attached must stay within 5% of a
plain profiled run on db and euler — and re-asserts that the timeline
changes nothing observable: stdout, instruction counts, byte clocks,
and record counts are identical with and without the sink.

Measurement note: the sink is *strictly additive* — ``profile_program``
calls ``sink.on_record`` inline and the identity asserts below pin that
it perturbs nothing else — so the overhead ratio is computed as
``t_plain / (t_plain + t_sink)`` with the sink cost timed directly by
feeding the run's own records through a fresh builder.  Timing the two
end-to-end runs against each other instead needs to resolve a ~5%
difference between ~0.25s wall-clock runs, which shared-host load
drift swamps; in the additive form the plain-run noise hits numerator
and denominator together and cancels to second order, while the tight
consume loop min-converges in a handful of repeats.
"""

import time

from repro.benchmarks import all_benchmarks
from repro.benchmarks.runner import compile_benchmark
from repro.core.profiler import profile_program
from repro.obs.timeline import TimelineBuilder, TimelineSink

BENCHES = ["db", "euler"]
ROUNDS = 5
OVERHEAD_FLOOR = 0.95  # timeline-profiled instr/sec >= 95% of plain profiled


def _one_run(bench, args, with_timeline):
    # Fresh program per round: compiled handlers cache per program, so
    # reuse would let one config warm up the other.
    program = compile_benchmark(bench, revised=False)
    sink = TimelineSink() if with_timeline else None
    started = time.perf_counter()
    result = profile_program(
        program,
        list(args),
        interval_bytes=bench.interval_bytes,
        sink=sink,
    )
    return result, time.perf_counter() - started


def _measure(name):
    bench = all_benchmarks()[name]
    args = bench.args_for("primary")
    # The additivity claim the ratio rests on: with the sink attached,
    # nothing observable about the run itself changes.
    plain, t_plain = _one_run(bench, args, with_timeline=False)
    timed, _ = _one_run(bench, args, with_timeline=True)
    assert timed.run_result.stdout == plain.run_result.stdout
    assert timed.run_result.instructions == plain.run_result.instructions
    assert timed.end_time == plain.end_time
    assert timed.profiler.record_count == len(plain.records)
    for _ in range(ROUNDS - 1):
        _, elapsed = _one_run(bench, args, with_timeline=False)
        if elapsed < t_plain:
            t_plain = elapsed
    records = plain.records
    t_sink = None
    for _ in range(3 * ROUNDS):
        started = time.perf_counter()
        builder = TimelineBuilder().consume(records)
        elapsed = time.perf_counter() - started
        if t_sink is None or elapsed < t_sink:
            t_sink = elapsed
    assert builder.object_count == len(records)
    instructions = plain.run_result.instructions
    return {
        "instructions": instructions,
        "records": len(records),
        "plain_ips": instructions / t_plain if t_plain else 0.0,
        "timeline_ips": (
            instructions / (t_plain + t_sink) if t_plain + t_sink else 0.0
        ),
        "sink_us_per_record": 1e6 * t_sink / len(records) if records else 0.0,
    }


def bench_timeline_overhead(benchmark, emit):
    def measure():
        return {name: _measure(name) for name in BENCHES}

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit()
    emit("=== Timeline overhead: instr/sec with a live TimelineSink attached ===")
    emit(
        f"{'Benchmark':10s} {'Instructions':>13s} {'Records':>8s} "
        f"{'Plain i/s':>13s} {'Timeline i/s':>13s} {'us/rec':>7s} {'Ratio':>7s}"
    )
    for name in BENCHES:
        row = rows[name]
        ratio = (
            row["timeline_ips"] / row["plain_ips"] if row["plain_ips"] else 0.0
        )
        emit(
            f"{name:10s} {row['instructions']:13d} {row['records']:8d} "
            f"{row['plain_ips']:13,.0f} {row['timeline_ips']:13,.0f} "
            f"{row['sink_us_per_record']:7.2f} {ratio:6.3f}"
        )
        assert ratio >= OVERHEAD_FLOOR, (
            f"{name}: timeline overhead ratio {ratio:.3f} "
            f"< {OVERHEAD_FLOOR} floor (>5% slowdown)"
        )
    emit("(timeline on/off runs produce identical stdout, instruction "
         "counts, byte clocks, and record counts; streaming==post-hoc "
         "bit-identity is enforced by tests/obs/test_timeline.py)")
