"""Benchmark: heap-snapshot capture overhead at deep-GC safepoints.

Snapshots piggyback on the moments the profiler already stops the
world (the interval deep GC plus program end), and capture only reads
the heap — so the whole cost is the worklist walk and varint packing.
The gate: on db, a profiled run with snapshot capture enabled keeps at
least 90% of the plain profiled run's instructions per second (i.e.
capture overhead ≤ 10%).

Best-of-N wall-clock over fresh programs per round, like the other
overhead benches. The captured stream is also sanity-checked (same
profile records, snapshots at every safepoint). Results land in
benchmarks/out/snapshot_overhead.json.
"""

import json
import os
import time

from repro.benchmarks import all_benchmarks
from repro.benchmarks.runner import compile_benchmark
from repro.core.profiler import profile_program
from repro.snapshot import SnapshotRecorder

BENCHES = ["db", "euler"]
ROUNDS = 3
#: Snapshot capture must keep at least this fraction of plain-profiled
#: instructions/sec on db (the gated row).
MIN_IPS_RATIO = 0.90
GATED = "db"
OUT_PATH = os.path.join(os.path.dirname(__file__), "out", "snapshot_overhead.json")


def _best_run(name, with_snapshots):
    bench = all_benchmarks()[name]
    args = bench.args_for("primary")
    best = None
    result = recorder = None
    for _ in range(ROUNDS):
        program = compile_benchmark(bench, revised=False)
        rec = SnapshotRecorder() if with_snapshots else None
        started = time.perf_counter()
        res = profile_program(
            program,
            list(args),
            interval_bytes=bench.interval_bytes,
            max_heap=bench.max_heap,
            snapshotter=rec,
        )
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best, result, recorder = elapsed, res, rec
    return result, recorder, best


def bench_snapshot_overhead(benchmark, emit):
    def measure():
        rows = {}
        for name in BENCHES:
            plain, _none, t_plain = _best_run(name, with_snapshots=False)
            snapped, recorder, t_snap = _best_run(name, with_snapshots=True)
            # Capture must not perturb the profile: identical stdout,
            # byte clock, and record count.
            assert snapped.run_result.stdout == plain.run_result.stdout
            assert snapped.end_time == plain.end_time
            assert len(snapped.records) == len(plain.records)
            assert recorder.capture_count >= 2
            instructions = plain.run_result.instructions
            rows[name] = {
                "instructions": instructions,
                "snapshots": recorder.capture_count,
                "nodes": recorder.node_count,
                "edges": recorder.edge_count,
                "plain_s": t_plain,
                "snapshot_s": t_snap,
                "plain_ips": instructions / t_plain if t_plain else 0.0,
                "snapshot_ips": instructions / t_snap if t_snap else 0.0,
            }
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit()
    emit("=== Snapshot capture overhead: profiled instr/sec, plain vs capture ===")
    emit(
        f"{'Benchmark':10s} {'Instructions':>13s} {'Snaps':>6s} {'Nodes':>8s} "
        f"{'Plain i/s':>13s} {'Capture i/s':>13s} {'Ratio':>7s}"
    )
    for name in BENCHES:
        row = rows[name]
        ratio = row["snapshot_ips"] / row["plain_ips"] if row["plain_ips"] else 0.0
        row["ips_ratio"] = ratio
        emit(
            f"{name:10s} {row['instructions']:13d} {row['snapshots']:6d} "
            f"{row['nodes']:8d} {row['plain_ips']:13,.0f} "
            f"{row['snapshot_ips']:13,.0f} {ratio:6.3f}x"
        )
    gated = rows[GATED]["ips_ratio"]
    assert gated >= MIN_IPS_RATIO, (
        f"{GATED}: snapshot capture keeps only {gated:.1%} of plain profiled "
        f"instr/sec (gate: ≥ {MIN_IPS_RATIO:.0%})"
    )
    os.makedirs(os.path.dirname(OUT_PATH), exist_ok=True)
    with open(OUT_PATH, "w", encoding="utf-8") as f:
        json.dump(
            {"min_ips_ratio": MIN_IPS_RATIO, "gated": GATED, "rows": rows},
            f,
            indent=2,
            sort_keys=True,
        )
    emit(
        f"(capture keeps {gated:.1%} of plain instr/sec on {GATED}, "
        f"gate ≥ {MIN_IPS_RATIO:.0%}; JSON at {os.path.relpath(OUT_PATH)})"
    )
