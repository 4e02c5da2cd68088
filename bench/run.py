"""The profiler's benchmark: one command per workload, every metric.

    python3 bench/run.py --workload db --seed 0 --trace 0
    python3 bench/run.py --workload db --seed 0 --trace 1
    python3 bench/run.py --compare bench/results bench/out

A run makes the reference output with the baseline interpreter, runs
one untimed warm-up rotation, then runs rotations for ``--seconds``
(see ``workloads.py``). Each rotation sets up a fresh serve daemon,
whose start-up time is the ``setup_s`` sample. ``--trace 0`` reports
the end-to-end metrics from plain rotations. ``--trace 1`` alternates
plain and traced rotations, reports the per-layer metrics instead (see
``layers.py``), and writes ``<out>/<workload>-seed<S>.trace.json`` for
``repro trace``. The full result, with provenance, goes to
``<out>/<workload>-seed<S>.json`` (``.layers.json`` when traced). The
last line of stdout is the summary that BENCHMARK.json's metric names
refer to. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

from layers import LAYERS, LayerTracer
from measure import PERCENTILES, percentile, pin_to_one_cpu, quartiles, summary
from workloads import ANALYSIS_OPS, CLI_OPS, WORKLOADS, Session

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# A run starts no new rotation after this many seconds, whatever
# --seconds says, so it ends well inside the three-minute limit.
HARD_STOP_S = 140.0
# The trace check: layer self times must cover this share of the
# traced operations' wall time.
MAX_UNATTRIBUTED = 0.05


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> dict:
    # Only a checkout that is itself the top of a git work tree has a
    # commit; an exported copy inside some other repository does not.
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {
        "commit": _git("rev-parse", "HEAD") if in_repo else None,
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


# -- end-to-end metrics ----------------------------------------------------


def pooled_percentiles(name: str, values: List[float]) -> Dict[str, dict]:
    """``name``.p50 and .p90 over every sample of the run."""
    return {
        f"{name}.p{pct}": dict(summary(values), value=percentile(values, pct),
                               n_beyond=len(values) - int(pct / 100 * len(values)))
        for pct in (50, 90)
    }


def end_to_end(rots, counts: Dict[str, int]) -> Dict[str, dict]:
    """Medians over rotations of times in reference seconds (see
    measure.py)."""

    def per_rotation(fn) -> dict:
        return summary([fn(r) for r in rots])

    metrics = {
        "setup_s": per_rotation(lambda r: r.setup_s),
        "overhead_x": per_rotation(lambda r: r.ref_s("profile") / r.ref_s("run")),
        "sampled_overhead_x": per_rotation(lambda r: r.ref_s("sampled") / r.ref_s("run")),
        "report_x": per_rotation(
            lambda r: (r.ref_s("profile") + r.ref_s("report")) / r.ref_s("run")),
        "plain_mips": per_rotation(lambda r: counts["instructions"] / r.ref_s("run") / 1e6),
        "profile_mips": per_rotation(
            lambda r: counts["instructions"] / r.ref_s("profile") / 1e6),
        "analyze_krps": per_rotation(
            lambda r: counts["records"] / sum(r.ref_s(op) for op in ANALYSIS_OPS) / 1e3),
        "ingest_krps": per_rotation(lambda r: r.ingest_records / r.ingest_s / 1e3),
    }
    metrics.update(pooled_percentiles("rankings_ms", [ms for r in rots for ms in r.rankings_ms]))
    return metrics


# -- per-layer metrics -----------------------------------------------------


def per_layer(session, pairs) -> Dict[str, dict]:
    """``pairs`` holds (plain rotation, traced rotation) tuples."""
    counts = session.counts
    samples: Dict[str, List[float]] = {}

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    for plain, traced in pairs:
        ops = traced.traces
        # Self times in reference seconds, like the operations' own.
        scale = {op: traced.ref_s(op) / traced.walls[op] for op in ops}
        total = {layer: sum(t.self_s[layer] * scale[op] for op, t in ops.items())
                 for layer in LAYERS}

        def runtime_s(op: str) -> float:
            return ops[op].self_s["runtime"] * scale[op]

        # The runtime's self time is dispatch in the plain run, and
        # dispatch plus the profiler's on_alloc/on_use hooks when profiled.
        dispatch = runtime_s("run")
        add("runtime.dispatch_s", dispatch)
        add("core.profiler.hooks_s", runtime_s("profile") - dispatch)
        add("core.profiler.sampled_hooks_s", runtime_s("sampled") - dispatch)
        for layer in LAYERS:
            if layer != "runtime":
                add(layer + "_s", total[layer])
        profiled = ops["profile"].heap_stats[0]
        add("runtime.gc.deep_runs", profiled.deep_gc_runs)
        add("runtime.gc.objects_marked", profiled.objects_marked)
        for name, value in traced.serve_deltas.items():
            add(name, value)
        add("serve.summary_lag_ms", traced.summary_lag_s * 1e3)
        add("serve.client.send_blocked_s", traced.send_blocked_s)
        add("serve.client.lateness_ms.p99", percentile(traced.lateness_ms, 99))
        add("trace.unattributed_share",
            sum(t.unattributed_s for t in ops.values()) / sum(t.wall for t in ops.values()))
        add("trace.overhead_x",
            sum(traced.ref_s(op) for op in CLI_OPS) / sum(plain.ref_s(op) for op in CLI_OPS))
    for name in ("instructions", "bytes_allocated"):
        add("runtime." + name, counts[name])
    for name in ("records", "sampled_kept", "sampled_skipped"):
        add("core.profiler." + name, counts[name])
    add("stream.codec.log_bytes", counts["log_bytes"])
    add("stream.codec.bytes_per_record", counts["log_bytes"] / counts["records"])
    metrics = {name: summary(values) for name, values in samples.items()}
    metrics.update(pooled_percentiles(
        "serve.paced_rankings_ms", [ms for _, traced in pairs for ms in traced.paced_reads_ms]))
    return metrics


# -- one run ---------------------------------------------------------------


def measure_run(args) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "cli.py").is_file():
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from repro.obs.trace import Tracer

    began = perf_counter()
    out_dir = Path(args.out).resolve()
    work = out_dir / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    prov = provenance()
    prov["pinned_cpu"] = pin_to_one_cpu()
    quick = args.quick
    session = Session(WORKLOADS[args.workload], args.seed, ROOT, work,
                      scale=0.5 if quick else 1.0)
    rots, pairs = [], []
    tracer = Tracer()
    try:
        session.prepare()
        session.rotation(0)  # warm-up: lazy imports, caches, reference log
        deadline = perf_counter() + args.seconds
        index = 1

        def more(done: int) -> bool:
            now = perf_counter()
            return done == 0 or (now < deadline and now - began < HARD_STOP_S)

        if not args.trace:
            while more(len(rots)):
                rots.append(session.rotation(index))
                index += 1
        else:
            layers = LayerTracer(tracer)
            while more(len(pairs)):
                # Alternate which side goes first, so neither the plain
                # nor the traced rotation always runs on a warmer host.
                first_traced = len(pairs) % 2 == 1
                a = session.rotation(index, layers if first_traced else None)
                b = session.rotation(index + 1, None if first_traced else layers)
                pairs.append((b, a) if first_traced else (a, b))
                index += 2
    finally:
        session.stop_daemon(index=-1)  # only after an error mid-rotation
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer(session, pairs)
        share = metrics["trace.unattributed_share"]["value"]
        session.check(share <= MAX_UNATTRIBUTED,
                      f"trace.unattributed_share {share:.3f} > {MAX_UNATTRIBUTED}")
        tracer.write_chrome_trace(str(out_dir / f"{args.workload}-seed{args.seed}.trace.json"))
        spec = SPEC["per_layer"]
    else:
        metrics = end_to_end(rots, session.counts)
        spec = SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    for name, entry in metrics.items():
        entry["unit"] = units[name]
    prov.update(
        loadavg_end=list(os.getloadavg()),
        seed=args.seed,
        args=session.args,
        seconds=args.seconds,
        quick=quick,
        warmup_rotations=1,
        rotations=len(pairs) * 2 if args.trace else len(rots),
        traced_rotations=len(pairs),
        percentiles=PERCENTILES,
        wall_s=perf_counter() - began,
    )
    correct = not session.failures
    result = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "failures": session.failures,
        "metrics": metrics,
        "provenance": prov,
    }
    suffix = ".layers.json" if args.trace else ".json"
    (out_dir / f"{args.workload}-seed{args.seed}{suffix}").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name in sorted(metrics):
        entry = metrics[name]
        print(f"{args.workload:6s} {name:34s} {entry['value']:14.6g} {entry['unit']:9s}"
              f" n={entry['n']}")
    for failure in session.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if correct else 1


# -- comparing two sets of runs -------------------------------------------


def load_set(path: Path) -> Dict[tuple, Dict[int, dict]]:
    """{(workload, traced): {seed: metrics}} from a directory of results."""
    runs: Dict[tuple, Dict[int, dict]] = {}
    for file in sorted(path.glob("*.json")):
        if file.name.endswith(".trace.json"):
            continue
        result = json.loads(file.read_text(encoding="utf-8"))
        key = (result["workload"], result["trace"])
        runs.setdefault(key, {})[result["provenance"]["seed"]] = result["metrics"]
    return runs


def verdict(a: List[float], b: List[float], pairs, better: str,
            bound: Optional[float]) -> str:
    """The verdict on one metric: a gain needs >= 9/10 pair wins and a
    median gap wider than the parent's IQR; a spread wider than the
    bound leaves the metric unresolved, unless every run of B reads
    better than every run of A."""
    sign = 1 if better == "higher" else -1
    med_a, med_b = median(a), median(b)
    q1a, q3a = quartiles(a)
    q1b, q3b = quartiles(b)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    gain = sign * (med_b - med_a)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3a - q1a:
        return "better"
    spread = max((q3a - q1a) / abs(med_a) if med_a else 0.0,
                 (q3b - q1b) / abs(med_b) if med_b else 0.0)
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > q3a - q1a:
            return "worse"
        return "same"
    if spread > bound:
        worst_b = min(b) if sign > 0 else max(b)
        best_a = max(a) if sign > 0 else min(a)
        return "better" if sign * (worst_b - best_a) > 0 else "unresolved"
    if med_a and -gain / abs(med_a) > bound:
        return "worse"
    return "same"


def compare(a_path: Path, b_path: Path) -> int:
    specs = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    a_runs, b_runs = load_set(a_path), load_set(b_path)
    print(f"{'workload':8s} {'metric':34s} {'A median':>12s} {'A IQR':>10s} "
          f"{'B median':>12s} {'B IQR':>10s} {'bound':>6s} {'pairs':>5s}  verdict")
    for key in sorted(set(a_runs) & set(b_runs)):
        a_seeds, b_seeds = a_runs[key], b_runs[key]
        names = sorted({n for m in a_seeds.values() for n in m}
                       & {n for m in b_seeds.values() for n in m})
        for name in names:
            a = [m[name]["value"] for m in a_seeds.values() if name in m]
            b = [m[name]["value"] for m in b_seeds.values() if name in m]
            pairs = [(a_seeds[s][name]["value"], b_seeds[s][name]["value"])
                     for s in sorted(set(a_seeds) & set(b_seeds))
                     if name in a_seeds[s] and name in b_seeds[s]]
            spec = specs.get(name, {})
            bound = spec.get("bound")
            q1a, q3a = quartiles(a)
            q1b, q3b = quartiles(b)
            print(f"{key[0]:8s} {name:34s} {median(a):12.6g} {q3a - q1a:10.4g} "
                  f"{median(b):12.6g} {q3b - q1b:10.4g} "
                  f"{'-' if bound is None else format(bound, '.2f'):>6s} {len(pairs):5d}  "
                  f"{verdict(a, b, pairs, spec.get('better', 'lower'), bound)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="how long the timed rotations run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: half-size inputs, one timed rotation "
                        "(one plain/traced pair with --trace 1)")
    parser.add_argument("--out", default=str(BENCH / "out"),
                        help="directory for results and traces")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two directories of results (A = parent)")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]))
    if args.workload is None:
        parser.error("--workload is required")
    if args.quick:
        args.seconds = 0.0
    return measure_run(args)


if __name__ == "__main__":
    sys.exit(main())
