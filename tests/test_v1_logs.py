"""Old v1 logs still load everywhere a log is read.

``tests/fixtures/logs/wordcount.draglog`` was written by the last
version whose ``profile --log`` wrote v1 JSONL::

    repro profile examples/programs/wordcount.mj --main WordCount \
        --log wordcount.draglog 1

``wordcount.truncated.draglog`` is the same file cut off half-way
through its last record, and ``wordcount.report.txt`` is that
version's ``repro report`` of the full log.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.analyzer import DragAnalysis
from repro.core.logfile import read_log

ROOT = Path(__file__).resolve().parents[1]
LOGS = ROOT / "tests" / "fixtures" / "logs"
FULL = str(LOGS / "wordcount.draglog")
CUT = str(LOGS / "wordcount.truncated.draglog")
RECORDS = 166


def test_report_matches_the_v1_era_golden(capsys):
    assert main(["report", FULL]) == 0
    assert capsys.readouterr().out == (LOGS / "wordcount.report.txt").read_text()


def test_report_of_a_cut_log_is_strict_unless_lenient(capsys):
    assert main(["report", CUT]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["report", CUT, "--lenient"]) == 0
    assert f"objects logged: {RECORDS - 1} " in capsys.readouterr().out


@pytest.mark.parametrize("log, extra, objects", [
    (FULL, [], RECORDS),
    (CUT, ["--lenient"], RECORDS - 1),
])
def test_timeline_json(tmp_path, capsys, log, extra, objects):
    out = tmp_path / "timeline.json"
    assert main(["timeline", log, "--json", str(out), *extra]) == 0
    payload = json.loads(out.read_text())
    assert payload["objects"] == objects
    assert payload["samples"] == []  # v1 logs never held deep-GC samples


def test_timeline_of_a_cut_log_is_strict_by_default(tmp_path, capsys):
    assert main(["timeline", CUT, "--json", str(tmp_path / "t.json")]) == 2


@pytest.mark.parametrize("log, objects", [(FULL, RECORDS), (CUT, RECORDS - 1)])
def test_watch_once(capsys, log, objects):
    assert main(["watch", log, "--once"]) == 0
    out = capsys.readouterr().out
    assert "(finished)" in out and f"records {objects} " in out


@pytest.mark.parametrize("log, objects", [(FULL, RECORDS), (CUT, RECORDS - 1)])
def test_replay_records_mode(capsys, log, objects):
    from repro.serve import ServeConfig, start_server_thread

    handle = start_server_thread(ServeConfig(
        port=0, http_port=0, workers=1, inline=True, quiet=True,
    ))
    try:
        host, port = handle.ingest_addr
        assert main(["replay", log, "--serve", f"{host}:{port}"]) == 0
    finally:
        handle.stop()
    assert f"{objects} records routed" in capsys.readouterr().err


def test_lint_profile_ranks_by_the_logged_drag(capsys):
    program = str(ROOT / "examples" / "programs" / "wordcount.mj")
    assert main(["lint", program, "--profile", FULL, "--format", "json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["profile"] == FULL
    assert body["profile_total_drag"] == DragAnalysis(read_log(FULL).records).total_drag > 0
