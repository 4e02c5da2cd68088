"""Workloads, and one rotation through the profiler's three hot paths.

A workload is one mini-Java program from the registry with the inputs
the seed generates. Every rotation sends it through all three hot
paths, so every metric exists on every workload:

1. the mutator under profiling — ``repro run``, ``repro profile --sink
   stream --log`` and the same with ``--sample-bytes 4096``, in an
   order that rotates each round;
2. the offline analysis of that log — ``repro report``, ``repro
   timeline --json -`` and ``repro watch --once --metrics-json``;
3. serve ingest and reads — a ``repro serve --workers 2`` daemon fed at
   a fixed rate while it is read, then read on its own, then fed the
   log raw, closed-loop, until ``/summary`` counts every record.

The CLI commands run in-process through :func:`repro.cli.main`, so a
rotation times exactly what those commands do. Every operation's output
is checked; a failed check counts against ``failed``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, sleep
from typing import Dict, List, Optional

from daemon import PACED_RECORDS, Daemon, PacedLoad, read_rankings
from measure import calibrate, to_reference


class Workload:
    """A registry program plus the profile interval its rotation uses.
    Why each workload is in the benchmark is in BENCHMARK.json and
    README.md."""

    def __init__(self, name: str, interval: int) -> None:
        self.name = name
        self.interval = interval


WORKLOADS = {
    w.name: w
    for w in (
        Workload("db", interval=16 * 1024),
        Workload("euler", interval=4 * 1024),
    )
}

PROGRAM_OPS = ("run", "profile", "sampled")
ANALYSIS_OPS = ("report", "timeline", "watch")
CLI_OPS = PROGRAM_OPS + ANALYSIS_OPS
SAMPLE_BYTES = 4096
# Quiet reads: /rankings GETs one after another on the idle daemon.
QUIET_READS = 40
# Phase A: this many units, each of as many whole logs as make up at
# least INGEST_UNIT_RECORDS records, so a unit lasts a few hundred
# milliseconds on either log.
INGEST_UNITS = 3
INGEST_UNIT_RECORDS = 4000

_STATS = re.compile(r"\[stats\] instructions=(\d+) allocated=(\d+)B")
_PROFILE = re.compile(
    r"\[profile\] (\d+) objects logged, (\d+) deep-GC samples, (\d+) bytes allocated"
)
_DEEP = re.compile(r"deep=(\d+)\)")
_KEPT = re.compile(r"kept (\d+) of (\d+) allocations")


def program_args(primary: List[str], seed: int, scale: float = 1.0) -> List[str]:
    """Seed 0 is the registry's ``primary_args``; seed s > 0 scales each
    by a factor in [0.9, 1.1] drawn from ``random.Random(s)``."""
    rng = random.Random(seed)
    out = []
    for arg in primary:
        factor = scale * (1.0 if seed == 0 else rng.uniform(0.9, 1.1))
        out.append(str(max(1, round(int(arg) * factor))))
    return out


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


class Rotation:
    """Times and outputs of one rotation. ``setup_s``, ``ingest_s`` and
    ``rankings_ms`` are in reference time (see measure.py); the rest is
    wall-clock."""

    def __init__(self) -> None:
        self.walls: Dict[str, float] = {}
        # Calibration loop times before and after each CLI operation.
        self.cal: Dict[str, tuple] = {}
        self.traces: Dict[str, object] = {}
        self.setup_s = 0.0
        self.ingest_s = 0.0
        self.ingest_records = 0
        self.summary_lag_s = 0.0
        # Quiet reads, one latency per read.
        self.rankings_ms: List[float] = []
        # Phase B, in milliseconds: read latency and how late the writer
        # sent each batch, both from when it was due.
        self.paced_reads_ms: List[float] = []
        self.lateness_ms: List[float] = []
        self.send_blocked_s = 0.0
        self.serve_deltas: Dict[str, float] = {}

    def ref_s(self, op: str) -> float:
        """The op's time in reference seconds."""
        return to_reference(self.walls[op], *self.cal[op])


class Session:
    """One benchmark run of one workload: set-up, rotations, teardown."""

    def __init__(self, workload: Workload, seed: int, root: Path, work: Path,
                 scale: float = 1.0) -> None:
        from repro.benchmarks.registry import get_benchmark

        self.workload = workload
        self.seed = seed
        self.root = root
        self.work = work
        self.bench = get_benchmark(workload.name)
        self.args = program_args(self.bench.primary_args, seed, scale)
        self.source = work / f"{workload.name}.mj"
        self.prof_log = work / "profile.dlog2"
        self.samp_log = work / "sampled.dlog2"
        self.serve_log = work / "serve.dlog2"
        self.metrics_json = work / "watch-metrics.json"
        self.daemon: Optional[Daemon] = None
        self.reference_stdout: Optional[str] = None
        self.reference_drag: Optional[int] = None
        self.expected: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.counts: Dict[str, float] = {}

    # -- bookkeeping -------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        """Record ``what`` as a failure unless ``ok``; any failure makes
        the run incorrect."""
        if not ok and len(self.failures) < 50:
            self.failures.append(what)
        return ok

    def op_done(self, ok: bool, what: str) -> None:
        """Count one attempted operation, failed unless ``ok``."""
        self.attempted += 1
        self.failed += not ok
        self.check(ok, what)

    def same(self, key: str, value) -> bool:
        """True when ``value`` equals what the first rotation produced."""
        first = self.expected.setdefault(key, value)
        return first == value

    # -- set-up and teardown ----------------------------------------------

    def prepare(self) -> None:
        """Write the program, and its stdout from the independent
        baseline interpreter as the reference every run must match."""
        from repro.mjava.compiler import compile_program
        from repro.runtime.engine import Engine
        from repro.runtime.library import link

        self.source.write_text(self.bench.original, encoding="utf-8")
        program = compile_program(link(self.bench.original), main_class=self.bench.main_class)
        result = Engine(program, engine="baseline").run(list(self.args))
        self.reference_stdout = "".join(line + "\n" for line in result.stdout)

    def _reference_drag(self) -> int:
        from repro.core.analyzer import DragAnalysis
        from repro.core.logfile import read_log

        return DragAnalysis(read_log(self.prof_log).records).total_drag

    def _start_daemon(self) -> float:
        """Start a fresh daemon and wait until it answers; returns the
        reference seconds that took (the workload's set-up time)."""
        before = calibrate()
        started = perf_counter()
        self.daemon = Daemon(self.root / "src", self.work)
        self.daemon.wait_ready()
        wall = perf_counter() - started
        return to_reference(wall, before, calibrate())

    def stop_daemon(self, index: int) -> None:
        """Check the daemon lost no stream, then SIGTERM it and check it
        drained and exited 0."""
        if self.daemon is None:
            return
        try:
            truncated = self.daemon.metrics().get("repro_serve_truncated_streams_total")
            self.op_done(truncated == 0, f"rotation {index}: {truncated} truncated streams")
        except OSError as exc:
            self.op_done(False, f"rotation {index}: serve /metrics failed: {exc}")
        code = self.daemon.stop()
        self.op_done(code == 0, f"rotation {index}: serve exited {code} after SIGTERM")
        self.daemon = None

    # -- one rotation ------------------------------------------------------

    def rotation(self, index: int, layers=None) -> Rotation:
        """Run every operation once; ``layers`` (a LayerTracer) traces
        the CLI operations."""
        rot = Rotation()
        shift = index % len(PROGRAM_OPS)
        order = PROGRAM_OPS[shift:] + PROGRAM_OPS[:shift] + ANALYSIS_OPS
        before = calibrate()
        for op in order:
            wall, out, err, ok = self._cli(op, layers, rot)
            after = calibrate()
            rot.walls[op] = wall
            rot.cal[op] = (before, after)
            before = after
            try:
                ok = ok and self._check(op, out, err)
            except (OSError, ValueError, KeyError) as exc:
                ok = self.check(False, f"rotation {index}: {op}: {exc!r}")
            self.op_done(ok, f"rotation {index}: {op} output")
        self._serve(rot, index, layers is not None)
        return rot

    def _argv(self, op: str) -> List[str]:
        program = [str(self.source), "--main", self.bench.main_class, "--engine", "compiled"]
        profile = program + ["--interval", str(self.workload.interval), "--sink", "stream"]
        return {
            "run": ["run"] + program + ["--stats"],
            "profile": ["profile"] + profile + ["--log", str(self.prof_log)],
            "sampled": ["profile"] + profile + [
                "--log", str(self.samp_log), "--sample-bytes", str(SAMPLE_BYTES),
                "--seed", str(self.seed)],
            "report": ["report", str(self.prof_log)],
            "timeline": ["timeline", str(self.prof_log), "--json", "-"],
            "watch": ["watch", str(self.prof_log), "--once",
                      "--metrics-json", str(self.metrics_json)],
        }[op] + (list(self.args) if op in PROGRAM_OPS else [])

    def _cli(self, op: str, layers, rot: Rotation):
        from repro import cli

        argv = self._argv(op)
        out, err = io.StringIO(), io.StringIO()

        def call() -> int:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    return cli.main(argv)
                except SystemExit as exc:
                    return exc.code

        if layers is None:
            started = perf_counter()
            code = call()
            wall = perf_counter() - started
        else:
            code, trace = layers.op(op, call)
            wall = trace.wall
            rot.traces[op] = trace
        return wall, out.getvalue(), err.getvalue(), code == 0

    def _check(self, op: str, out: str, err: str) -> bool:
        """Compare one operation's output with the reference and with the
        first rotation; note the counters the metrics need."""
        if op == "run":
            stats = _STATS.search(err)
            if not stats:
                return False
            self.counts["instructions"] = int(stats[1])
            self.counts["bytes_allocated"] = int(stats[2])
            return out == self.reference_stdout and self.same("run", stats.groups())
        if op in ("profile", "sampled"):
            line, deep = _PROFILE.search(err), _DEEP.search(err)
            log = self.prof_log if op == "profile" else self.samp_log
            if not (line and deep and log.exists()):
                return False
            data = log.read_bytes()
            if op == "profile":
                self.counts["records"] = int(line[1])
                self.counts["log_bytes"] = len(data)
                if self.reference_drag is None:
                    self.reference_drag = self._reference_drag()
                    self.serve_log.write_bytes(data)
                kept = ()
            else:
                match = _KEPT.search(err)
                if not match:
                    return False
                kept = match.groups()
                self.counts["sampled_kept"] = int(match[1])
                self.counts["sampled_skipped"] = int(match[2]) - int(match[1])
            return (
                out == self.reference_stdout
                and self.same(op, (line.groups(), deep[1], kept, _sha(data)))
            )
        if op == "report":
            return self.same("report", _sha(out))
        if op == "timeline":
            payload = json.loads(out)
            bins = payload["series"]["drag"]["values"]
            return sum(bins) == payload["total_drag"] == self.reference_drag
        if op == "watch":
            metrics = json.loads(self.metrics_json.read_text(encoding="utf-8"))
            return (
                metrics["total_drag"] == self.reference_drag
                and metrics["records_seen"] == self.counts["records"]
            )
        raise ValueError(op)

    # -- serve ingest and reads -----------------------------------------

    def _serve(self, rot: Rotation, index: int, traced: bool) -> None:
        """Set up a fresh daemon; then (B) write a fixed number of records
        at a fixed rate with reads at a fixed rate beside; then read
        ``/rankings`` on the idle daemon; then (A) stream whole logs
        closed-loop until ``/summary`` counts them all.

        The daemon's merge cost grows with the records it holds. A fresh
        daemon per rotation, with B first, makes what it holds during the
        reads the same for every rotation and, but for the sites in the
        seed's log, for every seed.

        The quiet reads and phase A are timed in units, each between two
        runs of the calibration loop, and scaled to the reference host
        one by one, like the CLI operations. Phase B's reads overlap its
        writes, so nothing can run between them; they stay wall-clock.
        """
        rot.setup_s = self._start_daemon()
        try:
            daemon = self.daemon
            if traced:
                metrics0, cpu0, wall0 = daemon.metrics(), daemon.cpu_seconds(), perf_counter()
            paced = self._paced(index)
            rot.paced_reads_ms = [latency * 1e3 for latency in paced.read_latency]
            rot.lateness_ms = [late * 1e3 for late in paced.lateness]
            rot.send_blocked_s = paced.send_blocked_s
            self.op_done(self._wait_summary(PACED_RECORDS, perf_counter() + 5.0),
                         f"rotation {index}: /summary short of {PACED_RECORDS} after phase B")
            rot.rankings_ms = self._quiet_reads(index)
            self._ingest(rot, index, PACED_RECORDS)
            if traced:
                wall = perf_counter() - wall0
                metrics1, cpu1 = daemon.metrics(), daemon.cpu_seconds()
                rot.serve_deltas = _serve_deltas(metrics0, metrics1, cpu0, cpu1, wall)
        finally:
            self.stop_daemon(index)

    def _paced(self, index: int) -> PacedLoad:
        """Phase B, checked: every stream's FIN and every read."""
        from repro.errors import ProfileError

        paced = PacedLoad(self.daemon, self.serve_log.read_bytes())
        try:
            paced.run()
            ok = len(paced.fins) == len(paced.streams) and all(
                fin.get("records") == sent and not fin.get("truncated")
                for sent, fin in paced.fins)
        except (OSError, ProfileError) as exc:
            ok = self.check(False, f"rotation {index}: paced stream: {exc!r}")
        self.op_done(ok, f"rotation {index}: paced streams FIN count")
        for ok in paced.read_ok:
            self.op_done(ok, f"rotation {index}: GET /rankings beside writes")
        return paced

    def _quiet_reads(self, index: int) -> List[float]:
        """/rankings read one after another on the idle daemon; returns
        each read's latency in reference milliseconds."""
        latencies = []
        before = calibrate()
        for _ in range(QUIET_READS):
            ok, wall = read_rankings(self.daemon)
            after = calibrate()
            self.op_done(ok, f"rotation {index}: GET /rankings")
            latencies.append(to_reference(wall, before, after) * 1e3)
            before = after
        return latencies

    def _ingest(self, rot: Rotation, index: int, held: int) -> None:
        """Phase A on a daemon already holding ``held`` records: each unit
        streams whole logs back to back until ``/summary`` counts them."""
        from repro.errors import ProfileError
        from repro.serve.client import replay_log

        records = self.counts["records"]
        streams = -(-INGEST_UNIT_RECORDS // records)
        before = calibrate()
        for _ in range(INGEST_UNITS):
            started = perf_counter()
            for _ in range(streams):
                try:
                    fin = replay_log(self.serve_log, "127.0.0.1", self.daemon.ingest_port,
                                     mode="raw", metadata={"program": self.workload.name})
                    ok = fin.get("records") == records and not fin.get("truncated")
                except (OSError, ProfileError):
                    ok = False
                self.op_done(ok, f"rotation {index}: stream FIN count")
            last_fin = perf_counter()
            held += streams * records
            self.op_done(self._wait_summary(held, last_fin + 5.0),
                         f"rotation {index}: /summary short of {held}")
            done = perf_counter()
            after = calibrate()
            rot.ingest_s += to_reference(done - started, before, after)
            rot.summary_lag_s += done - last_fin
            before = after
        rot.ingest_records = INGEST_UNITS * streams * records

    def _wait_summary(self, expected: int, deadline: float) -> bool:
        while True:
            try:
                status, summary = self.daemon.get_json("/summary")
                if status == 200 and summary["objects"] == expected:
                    return True
            except (OSError, ValueError, KeyError):
                pass
            if perf_counter() > deadline:
                return False
            sleep(0.002)


def _serve_deltas(m0: Dict[str, float], m1: Dict[str, float], cpu0, cpu1,
                  wall: float) -> Dict[str, float]:
    def delta(name: str) -> float:
        return m1.get(name, 0.0) - m0.get(name, 0.0)

    shards = [delta(k) for k in m1 if k.startswith("repro_serve_shard_records_total{")]
    merges = delta("repro_serve_merge_seconds_count")
    return {
        "serve.records": delta("repro_serve_records_total"),
        "serve.frames": delta("repro_serve_frames_total"),
        "serve.merges": merges,
        "serve.merge_s.mean": delta("repro_serve_merge_seconds_sum") / merges if merges else 0.0,
        "serve.shard_skew": max(shards) / (sum(shards) / len(shards)) if sum(shards) else 0.0,
        "serve.loop.busy": (cpu1[0] - cpu0[0]) / wall,
        "serve.shards.busy": (cpu1[1] - cpu0[1]) / wall,
    }

