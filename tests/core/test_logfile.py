"""Reading v1 logs: the committed fixtures under ``tests/fixtures/logs``
were written by the last version that still wrote v1, profiling
``examples/programs/wordcount.mj --main WordCount 1``."""

import json
from pathlib import Path

import pytest

from repro.errors import ProfileError
from repro.core.logfile import iter_log, read_log
from repro.core import profile_source
from tests.core.test_analyzer import make_record

LOGS = Path(__file__).resolve().parents[1] / "fixtures" / "logs"
FULL = LOGS / "wordcount.draglog"
CUT = LOGS / "wordcount.truncated.draglog"
WORDCOUNT = Path(__file__).resolve().parents[2] / "examples" / "programs" / "wordcount.mj"


def _lines(path):
    return path.read_text().splitlines()


def test_roundtrip_preserves_records():
    header, *lines = _lines(FULL)
    loaded = read_log(FULL)
    assert loaded.end_time == json.loads(header)["end_time"] == 35016
    assert loaded.metadata == {"main": "WordCount", "interval": 102400}
    assert loaded.samples == []  # v1 had no sample frames
    assert [r.to_dict() for r in loaded.records] == [json.loads(l) for l in lines]


def test_roundtrip_of_real_profile():
    """Profiling the fixture's run again yields the fixture's records."""
    result = profile_source(WORDCOUNT.read_text(), "WordCount", ["1"])
    loaded = read_log(FULL)
    assert loaded.end_time == result.end_time
    assert [r.to_dict() for r in loaded.records] == [
        r.to_dict() for r in result.records
    ]


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.log"
    path.write_text("")
    with pytest.raises(ProfileError):
        read_log(path)


def test_wrong_format_rejected(tmp_path):
    path = tmp_path / "bad.log"
    path.write_text(json.dumps({"format": "something-else", "version": 1}) + "\n")
    with pytest.raises(ProfileError):
        read_log(path)


def test_wrong_version_rejected(tmp_path):
    path = tmp_path / "bad2.log"
    path.write_text(json.dumps({"format": "repro-drag-log", "version": 99}) + "\n")
    with pytest.raises(ProfileError):
        read_log(path)


def test_corrupt_record_reports_line(tmp_path):
    path = tmp_path / "bad3.log"
    path.write_text(
        json.dumps({"format": "repro-drag-log", "version": 1}) + "\n{not json}\n"
    )
    with pytest.raises(ProfileError) as excinfo:
        read_log(path)
    assert ":2:" in str(excinfo.value)


def test_blank_lines_tolerated(tmp_path):
    path = tmp_path / "gaps.log"
    path.write_text(FULL.read_text() + "\n\n")
    assert len(read_log(path).records) == len(read_log(FULL).records) == 166


def test_iter_log_yields_records_lazily():
    handles = [r.handle for r in read_log(FULL).records]
    iterator = iter_log(FULL)
    assert next(iterator).handle == handles[0]  # nothing materialized up front
    assert [r.handle for r in iterator] == handles[1:]


def test_iter_log_matches_read_log():
    assert [r.to_dict() for r in iter_log(FULL)] == [
        r.to_dict() for r in read_log(FULL).records
    ]


def test_truncated_final_line_strict_raises():
    with pytest.raises(ProfileError):
        read_log(CUT)
    with pytest.raises(ProfileError):
        list(iter_log(CUT))


def test_truncated_final_line_lenient_keeps_good_records():
    """The cut copy ends mid-way through the full log's last record."""
    full = [r.to_dict() for r in read_log(FULL).records]
    loaded = read_log(CUT, strict=False)
    assert [r.to_dict() for r in loaded.records] == full[:-1]
    assert [r.to_dict() for r in iter_log(CUT, strict=False)] == full[:-1]


def test_corrupt_interior_record_raises_even_lenient(tmp_path):
    """Lenient mode only forgives a truncated *final* line — damage in
    the middle of a log is still an error."""
    header, first, *_ = _lines(FULL)
    path = tmp_path / "interior.log"
    path.write_text(f"{header}\n{first}\n{{garbage}}\n{first}\n")
    with pytest.raises(ProfileError):
        read_log(path, strict=False)


def test_v1_header_carries_finalizer_errors(tmp_path):
    path = tmp_path / "fe.draglog"
    header = {"format": "repro-drag-log", "version": 1, "end_time": 700,
              "finalizer_errors": 3}
    path.write_text(json.dumps(header) + "\n"
                    + json.dumps(make_record(handle=1).to_dict()) + "\n")
    loaded = read_log(path)
    assert loaded.end_time == 700
    assert loaded.finalizer_errors == 3
    assert [r.handle for r in loaded.records] == [1]


def test_v1_header_without_finalizer_errors_reads_none():
    assert read_log(FULL).finalizer_errors is None
