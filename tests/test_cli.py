"""The command-line tool: run / profile / report / optimize / disasm."""

import json

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
    # the log is a JSONL file with a header
    with open(log) as f:
        header = json.loads(f.readline())
    assert header["format"] == "repro-drag-log"
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
    """The acceptance pipeline: profile --sink stream --log run.dlog2,
    then report and watch --once on the same file."""
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


def test_profile_stream_sink_v1_format(program_file, tmp_path, capsys):
    log = str(tmp_path / "run.draglog")
    assert main(
        ["profile", program_file, "--main", "Main", "--interval", "4096",
         "--sink", "stream", "--log", log]
    ) == 0
    capsys.readouterr()
    with open(log) as f:
        header = json.loads(f.readline())
    assert header["format"] == "repro-drag-log" and header["version"] == 1
    assert main(["report", log]) == 0


def test_profile_stream_requires_log(program_file, capsys):
    assert main(
        ["profile", program_file, "--main", "Main", "--sink", "stream"]
    ) == 2
    assert "requires --log" in capsys.readouterr().err


def test_stream_and_buffer_logs_agree(program_file, tmp_path, capsys):
    """Same program, same interval: the streamed log holds exactly the
    records the buffered writer produces."""
    from repro.core.logfile import read_log

    buffered = str(tmp_path / "buffered.draglog")
    streamed = str(tmp_path / "streamed.dlog2")
    main(["profile", program_file, "--main", "Main", "--interval", "4096",
          "--log", buffered])
    main(["profile", program_file, "--main", "Main", "--interval", "4096",
          "--sink", "stream", "--log", streamed])
    capsys.readouterr()
    a, b = read_log(buffered), read_log(streamed)
    assert a.end_time == b.end_time
    assert [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records]


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
    with open(log) as f:
        text = f.read()
    with open(log, "w") as f:
        f.write(text[: len(text) - 20])  # crash mid-record
    assert main(["report", log]) == 2  # strict by default
    capsys.readouterr()
    assert main(["report", log, "--lenient"]) == 0
    assert "=== Drag report ===" in capsys.readouterr().out
