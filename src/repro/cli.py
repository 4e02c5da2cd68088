"""Command-line interface: the drag-profiling tool as a tool.

Mirrors the paper's two-phase workflow::

    python -m repro run program.mj --main Main arg1 arg2
    python -m repro profile program.mj --main Main --log run.dlog2
    python -m repro report run.dlog2 --top 10
    python -m repro watch run.dlog2 --once
    python -m repro timeline run.dlog2 --html run.html
    python -m repro optimize program.mj --main Main -o revised.mj
    python -m repro disasm program.mj --class Main

``profile`` is phase 1 (the instrumented VM writing the object log);
``report`` is phase 2 (the offline analyzer). ``--log`` streams each
record to disk as its object is reclaimed, in the binary v2 format,
with bounded memory; ``watch`` tails such a log — even mid-run — with
live drag metrics. Logs in the older v1 JSONL format still load
everywhere a log is read. Each job has one command: ``timeline``
renders a log's heap timeline (text, JSON, HTML), and ``profile
--snapshot FILE`` captures the heap snapshots that ``snapshot
report``/``snapshot diff`` read. ``optimize`` runs the verified
§3.2/§3.4 optimization pipeline and writes the rewritten source.

The service mode (see :mod:`repro.serve`)::

    python -m repro serve --port 7091 --workers 4
    python -m repro profile program.mj --main Main --serve localhost:7091
    python -m repro replay run.dlog2 --serve localhost:7091 --clients 4
    python -m repro report --serve localhost:7092
    python -m repro watch --follow localhost:7092

``serve`` is the long-running sharded aggregation daemon; ``profile
--serve`` streams phase 1 to it instead of (or in addition to) a local
file, and ``report``/``watch`` read the live merged rankings back over
its HTTP port.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import List, Optional

from repro.errors import MiniJavaException, OutOfMemory, ProfileError, ReproError


def _load_program(path: str, library_overrides=None):
    from repro.runtime.library import link

    with open(path, "r", encoding="utf-8") as f:
        source = f.read()
    return link(source, library_overrides=library_overrides)


def _make_telemetry(args, extra: bool = False):
    """One :class:`repro.obs.Telemetry` per invocation when any
    observability flag asked for it, else None — the convention every
    instrumented layer specializes on."""
    if not (getattr(args, "trace", None) or getattr(args, "metrics_out", None) or extra):
        return None
    from repro.obs import Telemetry

    return Telemetry()


def _flush_telemetry(args, telemetry) -> None:
    """Write the trace / metrics files the flags requested."""
    if telemetry is None:
        return
    if getattr(args, "trace", None):
        telemetry.tracer.write_chrome_trace(args.trace)
        print(f"[obs] wrote Chrome trace to {args.trace}", file=sys.stderr)
    if getattr(args, "metrics_out", None):
        telemetry.registry.write_exposition(args.metrics_out)
        print(f"[obs] wrote Prometheus metrics to {args.metrics_out}", file=sys.stderr)


def _add_obs_flags(parser) -> None:
    parser.add_argument("--trace", metavar="FILE",
                        help="write a Chrome trace-event JSON file "
                        "(load in Perfetto, or render with 'repro trace')")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="write Prometheus text-format metrics here")


def _log_only(args, *options) -> bool:
    """True, after an error line, when one of these log-reading
    ``options`` is set alongside ``--serve``."""
    for option in options:
        if getattr(args, option[2:].replace("-", "_")):
            print(f"error: {option} applies to a log file, not --serve",
                  file=sys.stderr)
            return True
    return False


def _unreachable(hostport: str, exc: OSError) -> ProfileError:
    return ProfileError(f"cannot reach serve daemon at {hostport}: {exc}")


def _gc_summary(stats) -> str:
    return (
        f"gc_runs={stats.gc_runs} "
        f"(minor={stats.minor_gc_runs} major={stats.major_gc_runs} "
        f"deep={stats.deep_gc_runs}) "
        f"gc_pause_ms={stats.gc_pause_seconds * 1e3:.1f} "
        f"reclaimed={stats.bytes_reclaimed}B"
    )


@contextmanager
def _program_output_kept():
    """Print what the program printed before an uncaught mini-Java
    exception or a host OutOfMemory ended its run; :func:`main` then
    reports the error."""
    try:
        yield
    except (MiniJavaException, OutOfMemory) as exc:
        for line in exc.stdout:
            print(line)
        raise


def cmd_run(args) -> int:
    from repro.mjava.compiler import compile_program
    from repro.runtime.engine import Engine

    # --time rides the tracer too: the root span *is* the timer.
    telemetry = _make_telemetry(args, extra=args.time)
    program_ast = _load_program(args.file)
    main_class = args.main
    if main_class is None:
        from repro.lint import detect_main_class

        main_class = detect_main_class(program_ast)
    program = compile_program(program_ast, main_class=main_class)
    engine = Engine(
        program, engine=args.engine, max_heap=args.max_heap, telemetry=telemetry
    )
    with _program_output_kept():
        if telemetry is None:
            result = engine.run(args.args)
            root = None
        else:
            with telemetry.span(
                "run", category="cli", file=args.file, engine=engine.config.engine
            ) as root:
                result = engine.run(args.args)
    for line in result.stdout:
        print(line)
    if args.stats:
        print(
            f"[stats] instructions={result.instructions} "
            f"allocated={result.heap_stats.bytes_allocated}B "
            f"objects={result.heap_stats.objects_allocated} "
            f"{_gc_summary(result.heap_stats)}",
            file=sys.stderr,
        )
    if args.time:
        elapsed = root.wall_seconds
        rate = result.instructions / elapsed if elapsed > 0 else float("inf")
        print(
            f"[time] engine={engine.config.engine} "
            f"instructions={result.instructions} "
            f"instr/sec={rate:,.0f} "
            f"byte-clock={result.clock}",
            file=sys.stderr,
        )
    _flush_telemetry(args, telemetry)
    return 0


def cmd_profile(args) -> int:
    from repro.core.analyzer import DragAnalysis
    from repro.core.profiler import profile_program
    from repro.core.report import drag_report
    from repro.mjava.compiler import compile_program

    telemetry = _make_telemetry(args)
    program = compile_program(_load_program(args.file), main_class=args.main)
    metadata = {"main": args.main, "interval": args.interval}
    if args.sample_bytes is not None and args.sample_bytes > 1:
        metadata["sample_bytes"] = args.sample_bytes
        metadata["seed"] = args.seed

    log_sink = None
    if args.log:
        from repro.stream.codec import V2LogWriter
        from repro.stream.sinks import LogWriterSink

        log_sink = LogWriterSink(V2LogWriter(args.log, metadata=metadata))
    serve_sink = None
    if args.serve:
        from repro.serve import ServeSink, parse_hostport

        host, port = parse_hostport(args.serve)
        serve_sink = ServeSink(
            host, port,
            metadata=dict(metadata, program=args.file),
        )
    if log_sink is not None and serve_sink is not None:
        from repro.stream import TeeSink

        sink = TeeSink(log_sink, serve_sink)
    else:
        sink = log_sink or serve_sink
    snapshotter = None
    if args.snapshot:
        from repro.snapshot import SnapshotRecorder

        snapshotter = SnapshotRecorder(
            out=args.snapshot, metadata=dict(metadata, program=args.file),
            telemetry=telemetry,
        )
    with _program_output_kept():
        result = profile_program(
            program,
            args.args,
            interval_bytes=args.interval,
            nesting_depth=args.nesting,
            last_use_depth=args.last_use_depth,
            sink=sink,
            engine=args.engine,
            telemetry=telemetry,
            sample_bytes=args.sample_bytes,
            seed=args.seed,
            snapshotter=snapshotter,
        )
    for line in result.run_result.stdout:
        print(line)
    print(
        f"[profile] {result.profiler.record_count} objects logged, "
        f"{result.profiler.sample_count} deep-GC samples, "
        f"{result.end_time} bytes allocated",
        file=sys.stderr,
    )
    print(
        f"[profile] {_gc_summary(result.run_result.heap_stats)}",
        file=sys.stderr,
    )
    sampler = result.profiler.sampler
    if sampler is not None:
        seen = sampler.sampled + sampler.skipped
        print(
            f"[profile] byte-sampling 1/{sampler.sample_bytes} "
            f"(seed {sampler.seed}): kept {sampler.sampled} of "
            f"{seen} allocations",
            file=sys.stderr,
        )
    if result.finalizer_errors:
        print(
            f"[profile] {result.finalizer_errors} finalizer exception(s) "
            "swallowed during the run",
            file=sys.stderr,
        )
    if snapshotter is not None:
        snapshotter.close()
        print(
            f"[profile] wrote {snapshotter.capture_count} heap snapshot(s) "
            f"({snapshotter.node_count} nodes, {snapshotter.edge_count} edges) "
            f"to {args.snapshot}",
            file=sys.stderr,
        )
    if serve_sink is not None:
        serve_sink.close()  # already closed at program end; idempotent
        routed = serve_sink.server_records
        print(
            f"[profile] streamed {serve_sink.count} records to serve "
            f"{args.serve} (stream {serve_sink.stream_id}"
            + (f", {routed} routed" if routed is not None else "")
            + ")",
            file=sys.stderr,
        )
    if log_sink is not None:
        log_sink.close()  # already closed at program end; idempotent
        print(
            f"[profile] streamed {log_sink.count} records to {args.log}",
            file=sys.stderr,
        )
    elif serve_sink is not None:
        pass  # the daemon owns the analysis; read it back via /rankings
    else:
        print(
            drag_report(
                DragAnalysis(result.records, nested=False),
                top=args.top,
                interval_bytes=args.interval,
                program=result.program,
            )
        )
    _flush_telemetry(args, telemetry)
    return 0


def cmd_report(args) -> int:
    if args.serve:
        from repro.serve import fetch_json, fetch_rankings, parse_hostport
        from repro.serve.merge import render_rankings_text

        if args.log:
            print("error: pass a log file or --serve, not both", file=sys.stderr)
            return 2
        if _log_only(args, "--app-only", "--lenient"):
            return 2
        addr = parse_hostport(args.serve)
        try:
            rankings = fetch_rankings(
                addr,
                top=args.top or None,
                table="nested" if args.nested else "site",
            )
            summary = fetch_json(addr, "/summary")
        except OSError as exc:
            raise _unreachable(args.serve, exc) from exc
        print(render_rankings_text(rankings, summary=summary))
        return 0
    if not args.log:
        print("error: report needs a log file (or --serve HOST:PORT)",
              file=sys.stderr)
        return 2
    from repro.core.analyzer import DragAnalysis
    from repro.core.logfile import read_log
    from repro.core.report import drag_report

    loaded = read_log(args.log, strict=not args.lenient)
    analysis = DragAnalysis(
        loaded.records, include_library_sites=not args.app_only,
        nested=args.nested,
    )
    interval = loaded.metadata.get("interval", 100 * 1024)
    print(drag_report(analysis, top=args.top, interval_bytes=interval, nested=args.nested))
    return 0


def cmd_watch(args) -> int:
    from repro.stream.watch import follow_server, watch_log

    if args.follow and args.log:
        print("error: pass a log file or --follow, not both", file=sys.stderr)
        return 2
    if args.follow:
        follow_server(
            args.follow,
            once=args.once,
            poll_interval=args.poll,
            top=args.top,
            metrics_json=args.metrics_json,
            metrics_out=args.metrics_out,
        )
        return 0
    if not args.log:
        print("error: watch needs a log file (or --follow HOST:PORT)",
              file=sys.stderr)
        return 2
    watch_log(
        args.log,
        once=args.once,
        poll_interval=args.poll,
        top=args.top,
        metrics_json=args.metrics_json,
        metrics_out=args.metrics_out,
    )
    return 0


def cmd_serve(args) -> int:
    from repro.serve import DragServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        http_port=args.http_port,
        workers=args.workers,
        inline=args.inline,
        top_k=args.top,
        drain_timeout=args.drain_timeout,
        snapshot_file=args.snapshot_file,
        timeline_bin_bytes=args.timeline_bin_bytes,
    )
    return DragServer(config).run()


def cmd_replay(args) -> int:
    import threading

    from repro.serve import parse_hostport, replay_log

    if args.mode == "raw" and (args.rate or (args.sample_bytes or 1) > 1):
        print("error: --rate and --sample-bytes need --mode records "
              "(raw mode copies the log verbatim)", file=sys.stderr)
        return 2
    host, port = parse_hostport(args.serve)
    results = [None] * args.clients
    errors = []

    def one(index: int) -> None:
        try:
            results[index] = replay_log(
                args.log, host, port, mode=args.mode, rate=args.rate,
                metadata={"replay": args.log, "client": index},
                sample_bytes=args.sample_bytes,
                # Offset per client so concurrent replays sample
                # independent subsets, yet the whole fleet is
                # reproducible from one --seed.
                seed=args.seed + index,
            )
        except Exception as exc:  # surfaced collectively below
            errors.append(exc)

    threads = [
        threading.Thread(target=one, args=(i,)) for i in range(args.clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for index, ack in enumerate(r for r in results if r is not None):
        print(
            f"[replay] client {index}: {ack.get('records')} records routed"
            + (" (truncated)" if ack.get("truncated") else ""),
            file=sys.stderr,
        )
    if errors:
        print(f"error: {errors[0]}", file=sys.stderr)
        return 1
    return 0


def cmd_optimize(args) -> int:
    from repro.mjava.pretty import pretty_print, unified_source_diff
    from repro.transform.pipeline import OptimizationPipeline

    telemetry = _make_telemetry(args)
    program = _load_program(args.file)
    pipeline = OptimizationPipeline(
        program,
        args.main,
        args.args,
        interval_bytes=args.interval,
        max_cycles=args.max_cycles,
        verify=args.verify,
        engine=args.engine,
        telemetry=telemetry,
        snapshot=args.snapshot,
    )

    if args.dry_run:
        cycle = pipeline.plan()
        print(cycle.describe_plan())
        print(
            f"[optimize] {len(cycle.patches)} patch(es) planned "
            "(dry run; nothing applied)",
            file=sys.stderr,
        )
        _flush_telemetry(args, telemetry)
        return 0

    result = pipeline.run()
    applied = 0
    for index, cycle in enumerate(result.cycles, 1):
        if len(result.cycles) > 1:
            print(f"--- cycle {index} ---", file=sys.stderr)
        summary = cycle.summary()
        if summary:
            print(summary, file=sys.stderr)
        applied += cycle.applied_count
        if args.verify and cycle.drag_after is not None:
            pct = (
                100.0 * (cycle.drag_after - cycle.drag_before) / cycle.drag_before
                if cycle.drag_before
                else 0.0
            )
            print(
                f"[optimize] cycle {index} verified: drag {cycle.drag_before} "
                f"-> {cycle.drag_after} ({pct:+.1f}%), "
                f"{cycle.applied_count} applied, "
                f"{len(cycle.rolled_back())} rolled back",
                file=sys.stderr,
            )
    print(f"[optimize] {applied} transformation(s) applied", file=sys.stderr)

    if args.diff:
        print(
            unified_source_diff(
                program, result.revised,
                fromfile=f"{args.file} (original)", tofile=f"{args.file} (revised)",
            ),
            end="",
        )
    text = pretty_print(result.revised)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"[optimize] wrote revised source to {args.output}", file=sys.stderr)
    elif not args.diff:
        print(text)
    _flush_telemetry(args, telemetry)
    return 0


def cmd_lint(args) -> int:
    from repro.lint import detect_main_class, lint_program, render
    from repro.lint.rules import RULES_BY_ID

    if args.rules:
        # Each --rule may itself be a comma-separated list.
        args.rules = [
            rule for chunk in args.rules for rule in chunk.split(",") if rule
        ]
        bad = [r for r in args.rules if r not in RULES_BY_ID]
        if bad:
            print(f"error: unknown rule(s) {', '.join(bad)}; "
                  f"have {', '.join(sorted(RULES_BY_ID))}", file=sys.stderr)
            return 2
    telemetry = _make_telemetry(args)
    program = _load_program(args.file)
    main_class = args.main or detect_main_class(program)
    drag_analysis = None
    if args.profile:
        drag_analysis = _load_drag_analysis(args.profile)
    snapshot_analysis = None
    if args.snapshot:
        from repro.snapshot import analyze_snapshot, read_snapshots

        loaded = read_snapshots(args.snapshot, strict=False)
        if loaded.snapshots:
            peak = max(loaded.snapshots, key=lambda s: s.total_bytes)
            snapshot_analysis = analyze_snapshot(peak)
    result = lint_program(
        program, main_class, program_path=args.file, rules=args.rules or None,
        telemetry=telemetry, snapshot=snapshot_analysis, drag=drag_analysis,
    )
    if drag_analysis is not None:
        result.correlate(drag_analysis, profile_path=args.profile)
    print(render(result, args.format, explain=args.explain, top=args.top))
    _flush_telemetry(args, telemetry)
    if args.fail_on and result.at_least(args.fail_on):
        return 1
    return 0


def _load_drag_analysis(path: str):
    """The log's site-only analysis: lint and snapshot reports look
    sites up, never call chains."""
    from repro.core.analyzer import DragAnalysis
    from repro.core.logfile import read_log

    return DragAnalysis(read_log(path).records, nested=False)


def cmd_snapshot(args) -> int:
    from repro.snapshot import read_snapshots, snapshot_diff_report, snapshot_report

    if args.action == "report":
        loaded = read_snapshots(args.snapshot_file, strict=not args.lenient)
        if not loaded.snapshots:
            print("error: no complete snapshots in file", file=sys.stderr)
            return 2
        drag = _load_drag_analysis(args.profile) if args.profile else None
        which = args.which
        if which is None:
            # Default to the heap at its fattest — retention is most
            # visible at peak, not in the (mostly-collected) end state.
            which = max(
                range(len(loaded.snapshots)),
                key=lambda i: loaded.snapshots[i].total_bytes,
            )
        print(snapshot_report(loaded, drag_analysis=drag, top=args.top, which=which))
        return 0

    # diff
    before = read_snapshots(args.snapshot_file, strict=not args.lenient)
    after = read_snapshots(args.other, strict=not args.lenient)
    if not before.snapshots or not after.snapshots:
        print("error: no complete snapshots to diff", file=sys.stderr)
        return 2
    print(snapshot_diff_report(before, after, top=args.top))
    return 0


def _snapshot_markers(path: str) -> list:
    """Join deep-GC snapshot markers with PR 9 retained sizes: one dict
    per snapshot, keyed by byte-clock, carrying the single biggest
    dominator-tree retained size at that instant."""
    from repro.snapshot import SnapshotAnalysis, read_snapshots

    markers = []
    for snap in read_snapshots(path, strict=False).snapshots:
        analysis = SnapshotAnalysis(snap)
        top = analysis.top_retained(1)
        markers.append({
            "time": snap.clock,
            "retained_bytes": analysis.retained[top[0]] if top else 0,
        })
    return markers


def cmd_timeline(args) -> int:
    import json

    from repro.obs.timeline import (
        DEFAULT_BIN_BYTES,
        TimelineBuilder,
        render_timeline_text,
    )

    if args.serve and args.log:
        print("error: pass a log file or --serve, not both", file=sys.stderr)
        return 2
    if args.serve:
        from urllib.error import HTTPError

        from repro.serve import fetch_json, parse_hostport

        if _log_only(args, "--bin-bytes", "--lenient"):
            return 2
        addr = parse_hostport(args.serve)
        try:
            payload = fetch_json(addr, f"/timeline?top={args.top}")
        except HTTPError as exc:
            print(f"error: /timeline returned {exc.code} "
                  "(serve started with --timeline-bin-bytes 0?)",
                  file=sys.stderr)
            return 2
        except OSError as exc:
            raise _unreachable(args.serve, exc) from exc
    elif args.log:
        from repro.core.logfile import read_log

        loaded = read_log(args.log, strict=not args.lenient)
        builder = TimelineBuilder(
            bin_bytes=args.bin_bytes or DEFAULT_BIN_BYTES, nested=False
        ).consume(loaded.records)
        for sample in loaded.samples:
            builder.add_sample(sample)
        builder.note_end(loaded.end_time)
        payload = builder.payload(top=args.top or None)
    else:
        print("error: timeline needs a log file (or --serve HOST:HTTP_PORT)",
              file=sys.stderr)
        return 2
    if args.json:
        body = json.dumps(payload, indent=2, sort_keys=True)
        if args.json == "-":
            print(body)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(body + "\n")
            print(f"[timeline] wrote JSON payload to {args.json}",
                  file=sys.stderr)
    if args.html:
        from repro.obs.htmlreport import write_html

        markers = _snapshot_markers(args.snapshot) if args.snapshot else None
        write_html(
            args.html, payload,
            title=f"repro heap timeline: {args.serve or args.log}",
            snapshots=markers,
        )
        print(f"[timeline] wrote HTML dashboard to {args.html}",
              file=sys.stderr)
    if args.json != "-":
        print(render_timeline_text(payload, width=args.width))
    return 0


def cmd_trace(args) -> int:
    from repro.obs import read_chrome_trace, render_span_tree

    roots = read_chrome_trace(args.trace_file)
    print(render_span_tree(roots, width=args.width))
    return 0


def cmd_disasm(args) -> int:
    from repro.bytecode.disasm import disassemble_method, disassemble_program
    from repro.mjava.compiler import compile_program

    program = compile_program(_load_program(args.file))
    if args.cls:
        cls = program.classes.get(args.cls)
        if cls is None:
            print(f"error: no class {args.cls}", file=sys.stderr)
            return 2
        members = list(cls.methods.values())
        if cls.ctor is not None:
            members.append(cls.ctor)
        if cls.clinit is not None:
            members.append(cls.clinit)
        for method in members:
            if not method.is_native:
                print(disassemble_method(method))
    else:
        print(disassemble_program(program))
    return 0


def byte_count(text: str) -> int:
    """argparse type of a byte size (an interval, a bin width or a
    sampling period): a positive integer, so a bad one exits 2 before
    any file is opened."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of bytes, got {value}"
        )
    return value


def top_count(text: str) -> int:
    """argparse type of a ``--top`` limit: a non-negative integer, since
    a negative one would slice away the lowest-ranked entry."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _add_run(sub) -> None:
    run = sub.add_parser("run", help="run a mini-Java program")
    run.add_argument("file")
    run.add_argument("--main", help="class containing static main "
                     "(default: auto-detect the unique one)")
    run.add_argument("--max-heap", type=int, default=None, help="heap limit in bytes")
    run.add_argument("--stats", action="store_true", help="print VM counters")
    run.add_argument("--engine", choices=["baseline", "compiled"], default=None,
                     help="dispatch engine: classic if/elif interpreter or "
                     "precompiled closures (default: compiled)")
    run.add_argument("--time", action="store_true",
                     help="print instructions, instr/sec, and final byte-clock")
    _add_obs_flags(run)
    run.set_defaults(fn=cmd_run, parser=run)


def _add_profile(sub) -> None:
    profile = sub.add_parser("profile", help="phase 1: run under the drag profiler")
    profile.add_argument("file")
    profile.add_argument("--main", required=True)
    profile.add_argument("--interval", type=byte_count, default=100 * 1024,
                         help="deep-GC interval in bytes (default 100K, as the paper)")
    profile.add_argument("--nesting", type=int, default=4,
                         help="nested allocation-site depth")
    profile.add_argument("--last-use-depth", type=int, default=1,
                         help="nested last-use-site depth")
    profile.add_argument("--log",
                         help="stream the object log (binary v2) here as objects "
                         "are reclaimed, instead of reporting")
    # Accepted for old scripts and ignored: --log always streams.
    profile.add_argument("--sink", choices=["stream"], help=argparse.SUPPRESS)
    profile.add_argument("--serve", metavar="HOST:PORT",
                         help="stream the profile to a running 'repro serve' "
                         "daemon (combines with --log to also keep a local copy)")
    profile.add_argument("--top", type=top_count, default=10)
    profile.add_argument("--sample-bytes", type=byte_count, default=None, metavar="N",
                         help="byte-weighted sampling: trailer roughly one "
                         "allocation per N allocated bytes and weight-correct "
                         "all drag estimates (1 = profile everything, "
                         "bit-identical to no sampling)")
    profile.add_argument("--seed", type=int, default=0,
                         help="sampling RNG seed for reproducible runs "
                         "(default 0; CI gates pin it)")
    profile.add_argument("--engine", choices=["baseline", "compiled"], default=None,
                         help="dispatch engine (default: compiled); the two "
                         "write identical logs")
    profile.add_argument("--snapshot", metavar="FILE",
                         help="also capture a heap snapshot at every deep-GC "
                         "safepoint into this file (analyze with "
                         "'repro snapshot report')")
    _add_obs_flags(profile)
    profile.set_defaults(fn=cmd_profile, parser=profile)


def _add_report(sub) -> None:
    report = sub.add_parser("report", help="phase 2: analyze an object log")
    report.add_argument("log", nargs="?",
                        help="an object log file (omit with --serve)")
    report.add_argument("--serve", metavar="HOST:HTTP_PORT",
                        help="read live merged rankings from a serve daemon's "
                        "HTTP port instead of a log file")
    report.add_argument("--top", type=top_count, default=10)
    report.add_argument("--nested", action="store_true",
                        help="group by nested allocation site (call chain)")
    report.add_argument("--app-only", action="store_true",
                        help="exclude library (mini-JDK) allocation sites")
    report.add_argument("--lenient", action="store_true",
                        help="tolerate a truncated final record (crashed run)")
    report.set_defaults(fn=cmd_report, parser=report)


def _add_watch(sub) -> None:
    watch = sub.add_parser("watch", help="tail a growing log with live drag metrics")
    watch.add_argument("log", nargs="?",
                       help="a growing log file (omit with --follow)")
    watch.add_argument("--follow", metavar="HOST:HTTP_PORT",
                       help="poll a serve daemon's /rankings endpoint instead "
                       "of tailing a file")
    watch.add_argument("--once", action="store_true",
                       help="print one summary of the log as it is now and exit")
    watch.add_argument("--poll", type=float, default=1.0,
                       help="seconds between polls (default 1)")
    watch.add_argument("--top", type=top_count, default=10)
    watch.add_argument("--metrics-json",
                       help="flush a machine-readable metrics snapshot here "
                       "on every refresh")
    watch.add_argument("--metrics-out", metavar="FILE",
                       help="flush Prometheus text-format metrics here "
                       "on every refresh (same repro_live_* series as "
                       "the in-process MetricsSink)")
    watch.set_defaults(fn=cmd_watch, parser=watch)


def _add_optimize(sub) -> None:
    optimize = sub.add_parser("optimize", help="profile-driven automatic rewriting")
    optimize.add_argument("file")
    optimize.add_argument("--main", required=True)
    optimize.add_argument("--interval", type=byte_count, default=100 * 1024)
    optimize.add_argument("-o", "--output", help="write revised source here")
    optimize.add_argument(
        "--verify",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="re-run each applied patch and roll back on stdout/drag regression",
    )
    optimize.add_argument(
        "--diff", action="store_true",
        help="print a unified diff of original vs revised source",
    )
    optimize.add_argument(
        "--dry-run", action="store_true",
        help="plan and print patches without applying anything",
    )
    optimize.add_argument(
        "--max-cycles", type=int, default=1,
        help="repeat the profile-rewrite cycle up to N times (§3.2)",
    )
    optimize.add_argument(
        "--engine", choices=["baseline", "compiled"], default=None,
        help="VM engine for profiling and verification runs "
        "(default: compiled)",
    )
    optimize.add_argument(
        "--snapshot", action="store_true",
        help="capture heap snapshots during the reference profile and "
        "plan dominating-reference cuts from dominator-tree retained "
        "sizes (DRAG008/RetainerCutPlanner; differentially verified)",
    )
    _add_obs_flags(optimize)
    optimize.set_defaults(fn=cmd_optimize, parser=optimize)


def _add_lint(sub) -> None:
    lint = sub.add_parser("lint", help="static drag analysis (no program run needed)")
    lint.add_argument("file")
    lint.add_argument("--main", help="class containing static main "
                      "(default: auto-detect the unique one)")
    lint.add_argument("--profile", help="a phase-1 drag log; findings are ranked "
                      "by the measured drag of their allocation sites")
    lint.add_argument("--format", choices=["text", "json", "sarif"], default="text")
    lint.add_argument("--fail-on", choices=["error", "warning", "note"],
                      help="exit 1 if any finding is at least this severe")
    lint.add_argument("--rule", dest="rules", action="append", metavar="RULEID",
                      help="restrict to specific rule IDs (repeatable; each "
                      "value may be a comma-separated list)")
    lint.add_argument("--explain", action="store_true",
                      help="show each finding's derivation (pinning paths, "
                      "last-use points) and analysis soundness notes")
    lint.add_argument("--snapshot", metavar="FILE",
                      help="a heap snapshot file (from profile --snapshot); "
                      "enables DRAG008 high-retained-container findings from "
                      "dominator-tree retained sizes")
    lint.add_argument("--top", type=top_count, default=None,
                      help="show only the N highest-ranked findings "
                      "(applies to text, json, and sarif alike)")
    _add_obs_flags(lint)
    lint.set_defaults(fn=cmd_lint, parser=lint)


def _add_serve(sub) -> None:
    serve = sub.add_parser(
        "serve", help="run the sharded drag-aggregation daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7091,
                       help="TCP ingest port for profile streams (default 7091; "
                       "0 picks a free port)")
    serve.add_argument("--http-port", type=int, default=None,
                       help="HTTP port for /rankings, /summary, /healthz, "
                       "/metrics (default: ingest port + 1)")
    serve.add_argument("--workers", type=int, default=4,
                       help="shard worker processes (default 4)")
    serve.add_argument("--inline", action="store_true",
                       help="run shards in-process instead of worker processes "
                       "(debugging, low-traffic)")
    serve.add_argument("--top", type=top_count, default=10,
                       help="default top-K for /rankings")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="seconds to wait for in-flight streams on "
                       "SIGTERM/SIGINT")
    serve.add_argument("--snapshot-file", metavar="FILE",
                       help="a heap snapshot file (from profile --snapshot); "
                       "GET /snapshot serves its retained-size summary, "
                       "re-parsed whenever the file grows")
    serve.add_argument("--timeline-bin-bytes", type=int, default=None,
                       metavar="N",
                       help="byte-clock bin width for the shard timelines "
                       "behind GET /timeline (default 64K; 0 disables)")
    serve.set_defaults(fn=cmd_serve, parser=serve)


def _add_replay(sub) -> None:
    replay = sub.add_parser(
        "replay", help="stream a recorded log to a serve daemon (load generator)")
    replay.add_argument("log", help="a v1 or v2 object log to replay")
    replay.add_argument("--serve", metavar="HOST:PORT", required=True,
                        help="the daemon's TCP ingest address")
    replay.add_argument("--clients", type=int, default=1,
                        help="concurrent replay connections (default 1)")
    replay.add_argument("--mode", choices=["records", "raw"], default="records",
                        help="'records' re-encodes each record (live-profiler "
                        "cost); 'raw' copies v2 bytes verbatim (max pressure)")
    replay.add_argument("--rate", type=float, default=None,
                        help="per-client records/sec pacing (records mode; "
                        "default: full speed)")
    replay.add_argument("--sample-bytes", type=byte_count, default=None, metavar="N",
                        help="client-side byte resampling before sending "
                        "(records mode): survivors carry composed weights so "
                        "the daemon's estimates still cover the full log")
    replay.add_argument("--seed", type=int, default=0,
                        help="sampling RNG seed; client i uses seed+i "
                        "(default 0; CI gates pin it)")
    replay.set_defaults(fn=cmd_replay, parser=replay)


def _add_snapshot(sub) -> None:
    snapshot = sub.add_parser(
        "snapshot", help="heap snapshots: retained-size report, diff")
    snap_sub = snapshot.add_subparsers(dest="action", required=True)
    snap_report = snap_sub.add_parser(
        "report", help="dominator-tree retained sizes and retainer chains")
    snap_report.add_argument("snapshot_file")
    snap_report.add_argument("--top", type=top_count, default=10)
    snap_report.add_argument("--which", type=int, default=None,
                             help="snapshot index within the file (default: "
                             "the one with the most reachable bytes)")
    snap_report.add_argument("--profile", metavar="LOG",
                             help="a phase-1 drag log; retainers are "
                             "annotated with the dragged sites they pin")
    snap_report.add_argument("--lenient", action="store_true",
                             help="tolerate a truncated snapshot file")
    snap_report.set_defaults(fn=cmd_snapshot, parser=snap_report)
    snap_diff = snap_sub.add_parser(
        "diff", help="per-site retained deltas between two snapshot files")
    snap_diff.add_argument("snapshot_file")
    snap_diff.add_argument("other")
    snap_diff.add_argument("--top", type=top_count, default=10)
    snap_diff.add_argument("--lenient", action="store_true")
    snap_diff.set_defaults(fn=cmd_snapshot, parser=snap_diff)


def _add_timeline(sub) -> None:
    timeline = sub.add_parser(
        "timeline",
        help="binned heap timeline: sparklines, JSON, HTML dashboard")
    timeline.add_argument("log", nargs="?",
                          help="an object log file (omit with --serve)")
    timeline.add_argument("--serve", metavar="HOST:HTTP_PORT",
                          help="fetch the live merged /timeline from a serve "
                          "daemon instead of reading a log")
    timeline.add_argument("--bin-bytes", type=byte_count, default=None, metavar="N",
                          help="bin width on the byte-allocation clock "
                          "(default 64K; log mode only — the daemon binned "
                          "at ingest)")
    timeline.add_argument("--top", type=top_count, default=5,
                          help="per-site drag strips to show (0 = all)")
    timeline.add_argument("--width", type=int, default=60,
                          help="sparkline width in columns")
    timeline.add_argument("--json", metavar="FILE",
                          help="write the timeline payload as JSON "
                          "('-' for stdout, suppressing the text render)")
    timeline.add_argument("--html", metavar="FILE",
                          help="write a self-contained HTML dashboard")
    timeline.add_argument("--snapshot", metavar="FILE",
                          help="a heap snapshot file (from profile "
                          "--snapshot); HTML markers are joined with "
                          "dominator-tree retained sizes")
    timeline.add_argument("--lenient", action="store_true",
                          help="tolerate a truncated log (crashed run)")
    timeline.set_defaults(fn=cmd_timeline, parser=timeline)


def _add_trace(sub) -> None:
    trace = sub.add_parser("trace", help="render a --trace file as a span tree")
    trace.add_argument("trace_file", help="a Chrome trace JSON file from --trace")
    trace.add_argument("--width", type=int, default=44,
                       help="label column width for the tree")
    trace.set_defaults(fn=cmd_trace, parser=trace)


def _add_disasm(sub) -> None:
    disasm = sub.add_parser("disasm", help="disassemble compiled bytecode")
    disasm.add_argument("file")
    disasm.add_argument("--class", dest="cls", help="restrict to one class")
    disasm.set_defaults(fn=cmd_disasm, parser=disasm)


# Every subcommand and the function that adds its parser, in the order
# `repro --help` lists them. Each leaf parser names itself as the
# `parser` default, so main() reports a stray option in its usage.
COMMANDS = {
    "run": _add_run,
    "profile": _add_profile,
    "report": _add_report,
    "watch": _add_watch,
    "optimize": _add_optimize,
    "lint": _add_lint,
    "serve": _add_serve,
    "replay": _add_replay,
    "snapshot": _add_snapshot,
    "timeline": _add_timeline,
    "trace": _add_trace,
    "disasm": _add_disasm,
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser. With ``command`` it holds that subcommand's
    parser only, which is all :func:`main` needs to run it."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Drag-time heap profiler for mini-Java "
        "(reproduction of 'Heap Profiling for Space-Efficient Java', PLDI 2001)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, add in COMMANDS.items():
        if command in (None, name):
            add(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Everything after the first "--" is a program argument, even one
    # that looks like an option: "repro run prog.mj -- -5".
    program_args: List[str] = []
    if "--" in argv:
        split = argv.index("--")
        argv, program_args = argv[:split], argv[split + 1:]
    # Build the invoked command's parser only; --help, a missing command
    # and an unknown one get them all.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    # Program arguments are also whatever trails the recognized options,
    # so "repro run prog.mj --main Main input1 input2" works naturally.
    args, extra = build_parser(command).parse_known_args(argv)
    bad = [a for a in extra if a.startswith("-")]
    if bad:
        args.parser.error(f"unrecognized arguments: {' '.join(bad)}")
    args.args = extra + program_args
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MiniJavaException as exc:
        print(f"uncaught mini-Java exception: {exc}", file=sys.stderr)
        return 3
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream (head, grep -q) closed our stdout: the Unix
        # convention is to exit quietly. Point stdout at /dev/null so
        # the interpreter's shutdown flush doesn't raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
