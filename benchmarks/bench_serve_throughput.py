"""Serve-daemon ingest throughput: frames/sec at N concurrent clients.

Each client is a separate *process* replaying the db benchmark's v2 log
in ``records`` mode — paying the full per-record encode cost a live
profiler pays — so N clients really are N independent producers, not N
threads behind one GIL.

Two measurements, two gates:

* **peak** — one unpaced client at socket speed; gates a frames/sec
  floor on the whole path (encode -> socket -> peek+route -> shard
  decode).
* **scaling** — N in {1, 4, 8} clients each paced to a realistic live
  profiler's record rate (open-loop load, the way real clients
  arrive). The gate is the issue's acceptance claim: aggregate ingest
  at 4 clients must scale over 1 client — i.e. the daemon absorbs four
  full-fidelity streams concurrently, it does not serialize them. The
  paced rate is chosen well under the single-core ceiling so the claim
  is about concurrency, not about outrunning the host CPU.

Results land in benchmarks/out/serve_throughput.json.
"""

import json
import multiprocessing
import os
import time

from repro.benchmarks import all_benchmarks
from repro.benchmarks.runner import compile_benchmark
from repro.core.profiler import profile_program
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeConfig, start_server_thread
from repro.serve.client import fetch_json, replay_log
from repro.stream.codec import V2LogWriter
from repro.stream.sinks import LogWriterSink

CLIENT_COUNTS = (1, 4, 8)
WORKERS = 4
#: per-client pacing for the scaling runs, records/sec. Low enough that
#: even 8 clients stay under a slow CI runner's ingest ceiling; the
#: scaling gate then measures concurrency, not raw CPU.
PACED_RATE = 700.0
#: frames/sec one unpaced client must sustain end to end. Local runs do
#: 20-30k; CI runners are slow and shared, hence the wide margin.
SINGLE_CLIENT_FLOOR = 300.0
OUT_PATH = os.path.join(os.path.dirname(__file__), "out", "serve_throughput.json")


def _client(path: str, host: str, port: int, rate) -> None:
    replay_log(path, host, port, mode="records", rate=rate)


def _run_clients(ctx, log_path, nclients, rate):
    registry = MetricsRegistry()
    handle = start_server_thread(
        ServeConfig(
            port=0, http_port=0, workers=WORKERS,
            drain_timeout=60.0, quiet=True,
        ),
        registry=registry,
    )
    host, port = handle.ingest_addr
    procs = [
        ctx.Process(target=_client, args=(str(log_path), host, port, rate))
        for _ in range(nclients)
    ]
    t0 = time.perf_counter()
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=600)
    elapsed = time.perf_counter() - t0
    assert all(p.exitcode == 0 for p in procs)
    summary = fetch_json(handle.http_addr, "/summary")
    frames = registry.get("repro_serve_frames_total").value
    records = registry.get("repro_serve_records_total").value
    handle.stop()
    assert summary["objects"] == records  # nothing lost in flight
    return {
        "clients": nclients,
        "workers": WORKERS,
        "rate_per_client": rate,
        "frames": int(frames),
        "records": int(records),
        "seconds": elapsed,
        "frames_per_sec": frames / elapsed,
        "records_per_sec": records / elapsed,
    }


def bench_serve_throughput(benchmark, emit, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("serve_throughput")
    bench = all_benchmarks()["db"]
    program = compile_benchmark(bench, revised=False)
    log_path = out_dir / "db.dlog2"
    sink = LogWriterSink(V2LogWriter(log_path))
    profile_program(
        program, bench.primary_args, interval_bytes=bench.interval_bytes, sink=sink
    )
    ctx = multiprocessing.get_context()

    def measure():
        peak = _run_clients(ctx, log_path, 1, rate=None)
        paced = {
            n: _run_clients(ctx, log_path, n, rate=PACED_RATE)
            for n in CLIENT_COUNTS
        }
        return peak, paced

    peak, paced = benchmark.pedantic(measure, rounds=1, iterations=1)
    os.makedirs(os.path.dirname(OUT_PATH), exist_ok=True)
    with open(OUT_PATH, "w", encoding="utf-8") as f:
        json.dump(
            {"benchmark": "db", "workers": WORKERS, "peak": peak,
             "paced": [paced[n] for n in CLIENT_COUNTS]},
            f, indent=2,
        )
    emit()
    emit("=== Serve daemon ingest throughput (db log, records mode) ===")
    emit(
        f"peak, 1 unpaced client: {peak['frames_per_sec']:.0f} frames/s "
        f"({peak['records_per_sec']:.0f} records/s)"
    )
    emit(f"{'Clients':>7s} {'Rate/ea':>8s} {'Frames':>9s} {'Seconds':>8s} "
         f"{'Frames/s':>10s} {'vs 1':>6s}")
    base = paced[CLIENT_COUNTS[0]]["frames_per_sec"]
    for n in CLIENT_COUNTS:
        row = paced[n]
        emit(
            f"{n:7d} {row['rate_per_client']:8.0f} {row['frames']:9d} "
            f"{row['seconds']:8.2f} {row['frames_per_sec']:10.0f} "
            f"{row['frames_per_sec'] / base:5.2f}x"
        )
    emit(f"(results written to {os.path.relpath(OUT_PATH)})")
    assert peak["frames_per_sec"] >= SINGLE_CLIENT_FLOOR, (
        f"single-client ingest {peak['frames_per_sec']:.0f} frames/s "
        f"below floor {SINGLE_CLIENT_FLOOR}"
    )
    # The acceptance claim: ingest scales from 1 to 4 concurrent
    # clients. Paced clients all run the same wall-clock window, so
    # absorbing 4 streams concurrently must show up as aggregate
    # throughput; 3x leaves headroom for scheduler noise on 1 core.
    assert paced[4]["frames_per_sec"] >= 3.0 * paced[1]["frames_per_sec"], (
        "4 concurrent paced clients did not scale over 1"
    )
