"""The command-line tool: run / profile / report / optimize / disasm."""

import json
from pathlib import Path

import pytest

from repro.cli import main

HELLO = """
class Main {
    public static void main(String[] args) {
        System.println("hello " + args.length);
        char[] wasted = new char[5000];
        for (int i = 0; i < 40; i = i + 1) { char[] junk = new char[200]; }
    }
}
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "program.mj"
    path.write_text(HELLO)
    return str(path)


def test_run_prints_program_output(program_file, capsys):
    assert main(["run", program_file, "--main", "Main", "a", "b"]) == 0
    out = capsys.readouterr().out
    assert "hello 2" in out


def test_program_arguments_after_double_dash_may_look_like_options(tmp_path, capsys):
    path = tmp_path / "echo.mj"
    path.write_text(
        "class Main { public static void main(String[] args) { "
        "for (int i = 0; i < args.length; i = i + 1) { System.println(args[i]); } } }"
    )
    argv = ["run", str(path), "--main", "Main", "7", "--", "-5", "--stats", "--"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.split() == ["7", "-5", "--stats", "--"]
    assert "[stats]" not in captured.err


def test_unrecognized_option_is_reported_by_the_subcommand(program_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", program_file, "--main", "Main", "-5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro run ")
    assert "repro run: error: unrecognized arguments: -5" in err
    assert "disasm" not in err  # not the top-level usage listing every command


def test_run_stats_on_stderr(program_file, capsys):
    assert main(["run", program_file, "--main", "Main", "--stats"]) == 0
    err = capsys.readouterr().err
    assert "instructions=" in err and "gc_runs=" in err


def test_run_missing_file(capsys):
    assert main(["run", "/nonexistent.mj", "--main", "Main"]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_semantic_error_reported(tmp_path, capsys):
    path = tmp_path / "bad.mj"
    path.write_text("class Main { public static void main(String[] args) { x = 1; } }")
    assert main(["run", str(path), "--main", "Main"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_uncaught_exception_exit_code(tmp_path, capsys):
    path = tmp_path / "throws.mj"
    path.write_text(
        'class Main { public static void main(String[] args) '
        '{ throw new RuntimeException("boom"); } }'
    )
    assert main(["run", str(path), "--main", "Main"]) == 3
    assert "boom" in capsys.readouterr().err


def test_profile_prints_report_by_default(program_file, capsys):
    assert main(
        ["profile", program_file, "--main", "Main", "--interval", "4096"]
    ) == 0
    captured = capsys.readouterr()
    assert "=== Drag report ===" in captured.out
    assert "Main.main" in captured.out
    assert "deep-GC samples" in captured.err


def test_profile_then_report_roundtrip(program_file, tmp_path, capsys):
    log = str(tmp_path / "run.draglog")
    assert main(
        ["profile", program_file, "--main", "Main", "--interval", "4096", "--log", log]
    ) == 0
    capsys.readouterr()
    # --log writes the binary v2 format whatever the file's extension
    with open(log, "rb") as f:
        assert f.read(4) == b"RDL2"
    assert main(["report", log, "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "=== Drag report ===" in out


def test_report_nested_grouping(program_file, tmp_path, capsys):
    log = str(tmp_path / "run.draglog")
    main(["profile", program_file, "--main", "Main", "--interval", "4096", "--log", log])
    capsys.readouterr()
    assert main(["report", log, "--nested"]) == 0
    assert "nested allocation sites" in capsys.readouterr().out


def test_report_bad_log(tmp_path, capsys):
    path = tmp_path / "bad.log"
    path.write_text("not a log\n")
    assert main(["report", str(path)]) == 2


def test_optimize_writes_revised_source(program_file, tmp_path, capsys):
    out_path = str(tmp_path / "revised.mj")
    code = main(
        ["optimize", program_file, "--main", "Main", "--interval", "4096",
         "-o", out_path]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "transformation(s) applied" in err
    revised = open(out_path).read()
    # the never-used 5000-char buffer allocation is gone
    assert "new char[5000]" not in revised
    assert "class Main" in revised


def test_optimize_dry_run_plans_without_writing(program_file, tmp_path, capsys):
    out_path = tmp_path / "revised.mj"
    code = main(
        ["optimize", program_file, "--main", "Main", "--interval", "4096",
         "--dry-run", "-o", str(out_path)]
    )
    assert code == 0
    captured = capsys.readouterr()
    # The plan goes to stdout: numbered patches with strategy + rationale.
    assert "dead-code-removal" in captured.out
    assert "1." in captured.out
    assert "planned (dry run; nothing applied)" in captured.err
    # Nothing is applied or written.
    assert not out_path.exists()


def test_optimize_diff_prints_unified_diff(program_file, capsys):
    code = main(
        ["optimize", program_file, "--main", "Main", "--interval", "4096",
         "--diff"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "--- " in captured.out and "+++ " in captured.out
    assert "@@" in captured.out
    # The removed never-used buffer shows as a deletion.
    assert any(
        line.startswith("-") and "new char[5000]" in line
        for line in captured.out.splitlines()
    )
    # With --diff the revised source itself is not dumped to stdout.
    assert "class Main {" not in [l for l in captured.out.splitlines() if not l[:1] in "-+"]


def test_optimize_verified_run_reports_drag_delta(program_file, capsys):
    code = main(
        ["optimize", program_file, "--main", "Main", "--interval", "4096",
         "--verify"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "verified: drag" in captured.err
    assert "rolled back" in captured.err
    assert "transformation(s) applied" in captured.err


def test_optimize_no_verify_skips_differential_run(program_file, capsys):
    code = main(
        ["optimize", program_file, "--main", "Main", "--interval", "4096",
         "--no-verify"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "verified" not in captured.err
    assert "transformation(s) applied" in captured.err


def test_optimize_max_cycles_runs_fixpoint(program_file, capsys):
    code = main(
        ["optimize", program_file, "--main", "Main", "--interval", "4096",
         "--max-cycles", "3"]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "--- cycle 1 ---" in err


def test_disasm_single_class(program_file, capsys):
    assert main(["disasm", program_file, "--class", "Main"]) == 0
    out = capsys.readouterr().out
    assert "Main.main" in out
    assert "NEWARRAY" in out


def test_disasm_unknown_class(program_file, capsys):
    assert main(["disasm", program_file, "--class", "Ghost"]) == 2


def test_disasm_whole_program(program_file, capsys):
    assert main(["disasm", program_file]) == 0
    out = capsys.readouterr().out
    assert "class Vector" in out  # library included


def test_module_entry_point():
    import subprocess, sys

    result = subprocess.run(
        [sys.executable, "-m", "repro", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "profile" in result.stdout


def test_profile_stream_sink_to_v2_then_report_and_watch(program_file, tmp_path, capsys):
    """profile --log run.dlog2, then report and watch --once on the same
    file. ``--sink stream`` is hidden and ignored, but old scripts that
    pass it still run."""
    log = str(tmp_path / "run.dlog2")
    assert main(
        ["profile", program_file, "--main", "Main", "--interval", "4096",
         "--sink", "stream", "--log", log]
    ) == 0
    err = capsys.readouterr().err
    assert "streamed" in err and "run.dlog2" in err
    with open(log, "rb") as f:
        assert f.read(4) == b"RDL2"
    assert main(["report", log, "--top", "5"]) == 0
    assert "=== Drag report ===" in capsys.readouterr().out
    assert main(["watch", log, "--once"]) == 0
    out = capsys.readouterr().out
    assert "repro watch" in out and "(finished)" in out


def test_stream_and_buffer_logs_agree(tmp_path, capsys):
    """On db and euler, the records ``profile --log`` streams to its v2
    file are exactly the records a sink-less profile buffers."""
    from repro.benchmarks import get_benchmark
    from repro.core.logfile import read_log
    from repro.core.profiler import profile_source

    for name in ("db", "euler"):
        bench = get_benchmark(name)
        program = tmp_path / f"{name}.mj"
        program.write_text(bench.original)
        log = str(tmp_path / f"{name}.draglog")
        assert main(["profile", str(program), "--main", bench.main_class,
                     "--interval", str(bench.interval_bytes), "--log", log,
                     *bench.primary_args]) == 0
        capsys.readouterr()
        buffered = profile_source(
            bench.original, bench.main_class, bench.primary_args,
            interval_bytes=bench.interval_bytes,
        )
        streamed = read_log(log)
        assert streamed.end_time == buffered.end_time
        assert [r.to_dict() for r in streamed.records] == [
            r.to_dict() for r in buffered.records
        ]
        assert [(s.time, s.reachable_bytes, s.object_count)
                for s in streamed.samples] == [
            (s.time, s.reachable_bytes, s.object_count) for s in buffered.samples
        ]


def test_watch_metrics_json(program_file, tmp_path, capsys):
    log = str(tmp_path / "run.dlog2")
    metrics = str(tmp_path / "metrics.json")
    main(["profile", program_file, "--main", "Main", "--interval", "4096",
          "--sink", "stream", "--log", log])
    capsys.readouterr()
    assert main(["watch", log, "--once", "--metrics-json", metrics]) == 0
    capsys.readouterr()
    with open(metrics) as f:
        snapshot = json.load(f)
    assert snapshot["finished"] is True
    assert snapshot["records_seen"] > 0
    assert snapshot["top_sites"]


def test_watch_missing_log(tmp_path, capsys):
    assert main(["watch", str(tmp_path / "ghost.dlog2"), "--once"]) == 2
    assert "error:" in capsys.readouterr().err


def test_report_lenient_on_truncated_log(program_file, tmp_path, capsys):
    log = str(tmp_path / "run.draglog")
    main(["profile", program_file, "--main", "Main", "--interval", "4096",
          "--log", log])
    capsys.readouterr()
    with open(log, "rb") as f:
        data = f.read()
    with open(log, "wb") as f:
        f.write(data[: len(data) - 20])  # crash mid-record
    assert main(["report", log]) == 2  # strict by default
    capsys.readouterr()
    assert main(["report", log, "--lenient"]) == 0
    assert "=== Drag report ===" in capsys.readouterr().out


def _exit_code(argv):
    """The exit status of ``main(argv)``, including argparse's exits."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


@pytest.mark.parametrize("interval", ["0", "-5"])
def test_profile_rejects_non_positive_interval_before_opening_log(
    program_file, tmp_path, capsys, interval
):
    log = tmp_path / "F"
    argv = ["profile", program_file, "--main", "Main", "--sink", "stream",
            "--log", str(log), "--interval", interval]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        "repro profile: error: argument --interval: must be a positive "
        f"number of bytes, got {interval}"
    )
    assert not log.exists()


@pytest.mark.parametrize("argv", [
    ["optimize", "{prog}", "--main", "Main", "--interval", "0"],
    ["timeline", "{tmp}/out", "--bin-bytes", "0"],
    ["profile", "{prog}", "--main", "Main", "--log", "{tmp}/out",
     "--sample-bytes", "0"],
    ["profile", "{prog}", "--main", "Main", "--log", "{tmp}/out",
     "--sample-bytes", "-3"],
    ["replay", "{tmp}/log", "--serve", "127.0.0.1:9", "--sample-bytes", "0"],
    ["replay", "{tmp}/log", "--serve", "127.0.0.1:9", "--sample-bytes", "-3"],
])
def test_byte_sizes_are_validated_at_parsing(program_file, tmp_path, capsys, argv):
    argv = [a.format(prog=program_file, tmp=tmp_path) for a in argv]
    assert _exit_code(argv) == 2
    assert "must be a positive number of bytes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["report", "{log}"],
    ["watch", "{log}", "--once"],
    ["timeline", "{log}"],
])
def test_negative_top_is_refused_at_parsing(program_file, tmp_path, capsys, argv):
    log = str(tmp_path / "run.dlog2")
    main(["profile", program_file, "--main", "Main", "--interval", "4096",
          "--log", log])
    capsys.readouterr()
    argv = [a.format(log=log) for a in argv] + ["--top", "-1"]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"repro {argv[0]}: error: argument --top: must not be negative, got -1"
    )


def _closed_port():
    """A localhost port nothing listens on."""
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize("extra", [["--sample-bytes", "64"], ["--rate", "100"]])
def test_raw_replay_refuses_sampling_and_pacing(program_file, tmp_path, capsys, extra):
    """Raw mode copies the log's bytes verbatim, so it can neither
    resample nor pace; the pair is refused before any connection."""
    from repro.serve.client import fetch_json
    from repro.serve.server import ServeConfig, start_server_thread

    log = str(tmp_path / "run.dlog2")
    main(["profile", program_file, "--main", "Main", "--interval", "4096",
          "--log", log])
    capsys.readouterr()
    handle = start_server_thread(
        ServeConfig(port=0, http_port=0, workers=1, inline=True, quiet=True)
    )
    try:
        host, port = handle.ingest_addr
        argv = ["replay", log, "--serve", f"{host}:{port}", "--mode", "raw"]
        assert main(argv + extra) == 2
        assert "need --mode records" in capsys.readouterr().err
        assert fetch_json(handle.http_addr, "/summary")["streams"] == []
    finally:
        handle.stop()


@pytest.mark.parametrize("argv", [
    ["report", "--app-only"],
    ["report", "--lenient"],
    ["timeline", "--bin-bytes", "4096"],
    ["timeline", "--lenient"],
])
def test_serve_views_refuse_log_only_flags(capsys, argv):
    """A flag that shapes how a log is read cannot apply to a daemon's
    view; it is refused before any request (the port is closed, so a
    request would fail differently)."""
    command, *flags = argv
    hostport = f"127.0.0.1:{_closed_port()}"
    assert main([command, "--serve", hostport] + flags) == 2
    err = capsys.readouterr().err
    assert err.strip() == f"error: {flags[0]} applies to a log file, not --serve"


@pytest.mark.parametrize("command", ["report", "timeline"])
def test_serve_views_report_an_unreachable_daemon(capsys, command):
    """Like ``watch --follow``: one error line and exit 2, no traceback."""
    hostport = f"127.0.0.1:{_closed_port()}"
    assert main([command, "--serve", hostport]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot reach serve daemon at {hostport}: ")


NULL_CALL = """
class Box { int v; int get() { return v; } }
class Main {
    public static void main(String[] args) {
        System.println("before");
        Box b = null;
        System.println("value " + b.get());
    }
}
"""


@pytest.mark.parametrize("engine", ["baseline", "compiled"])
@pytest.mark.parametrize("command", ["run", "profile"])
def test_uncaught_exception_keeps_the_lines_printed_before(tmp_path, capsys, command, engine):
    path = tmp_path / "null.mj"
    path.write_text(NULL_CALL)
    assert main([command, str(path), "--main", "Main", "--engine", engine]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["before"]
    assert "uncaught mini-Java exception: uncaught NullPointerException: invoke get" in captured.err


@pytest.mark.parametrize("engine", ["baseline", "compiled"])
def test_host_out_of_memory_keeps_the_lines_printed_before(capsys, engine):
    """The OutOfMemoryError itself does not fit the heap: the run ends
    with exit 2, after what the program printed."""
    fixture = Path(__file__).resolve().parent / "fixtures" / "exceptions.mj"
    argv = ["run", str(fixture), "--main", "Main",
            "--max-heap", "12288", "--engine", engine, "12", "4748"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-2:] == ["caught 747332 total 3478", "exhausted here 9495"]
    assert "error: live 12288B + 16B exceeds 12288B" in captured.err
