"""Call budget of the offline analysis commands, per record.

``sys.setprofile`` counts Python calls while one command runs on db's
5,783-record log, after a warm-up run of the same command. Call counts
do not depend on timing, so the ceilings are exact.

* ``repro timeline LOG --json -`` and ``repro watch LOG --once`` print
  sites only, so each record gets one group fold: the aggregate's
  ``_fold`` and its site group's, two calls into ``repro.core.analyzer``.
  Folding the nested partition as well made three (timeline 17,499
  calls, watch 17,474). The timeline's own module adds one call per
  record, ``TimelineBuilder.add`` (6,087 calls).
* ``repro report LOG`` computes each record's ``space_time`` once, in
  the fold, and the pattern classifier, the last-use partition and the
  drag-time breakdown read what the fold stored. Recomputing it there
  made 23,049 calls (21,573 with ``--nested``).
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro import cli
from repro.benchmarks.registry import get_benchmark
from repro.core import analyzer, trailer
from repro.core.logfile import read_log
from repro.obs import timeline


def _cli(argv) -> None:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv


@pytest.fixture(scope="module")
def db_log(tmp_path_factory):
    work = tmp_path_factory.mktemp("call-budget")
    bench = get_benchmark("db")
    program = work / "db.mj"
    program.write_text(bench.original, encoding="utf-8")
    log = work / "db.dlog2"
    _cli(["profile", str(program), "--main", bench.main_class,
          "--interval", str(bench.interval_bytes), "--log", str(log)]
         + list(bench.primary_args))
    return log, len(read_log(log).records)


def _count_calls(argv):
    """Calls into the analyzer module, the timeline module and
    ``space_time`` while ``repro ARGV`` runs, after one warm-up run."""
    _cli(argv)
    counts = {"analyzer": 0, "timeline": 0, "space_time": 0}
    space_time = trailer.space_time.__code__

    def count(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code is space_time:
            counts["space_time"] += 1
        elif code.co_filename == analyzer.__file__:
            counts["analyzer"] += 1
        elif code.co_filename == timeline.__file__:
            counts["timeline"] += 1

    sys.setprofile(count)
    try:
        _cli(argv)
    finally:
        sys.setprofile(None)
    return counts


@pytest.mark.parametrize(
    "argv", [["timeline", "--json", "-"], ["watch", "--once"]], ids=["timeline", "watch"]
)
def test_site_only_commands_fold_one_group_per_record(db_log, argv):
    log, records = db_log
    assert records > 5000
    counts = _count_calls([argv[0], str(log)] + argv[1:])
    assert counts["analyzer"] < 2.1 * records, counts
    assert counts["timeline"] < 1.1 * records, counts
    assert counts["space_time"] == records, counts


@pytest.mark.parametrize("extra", [[], ["--nested"]], ids=["sites", "nested"])
def test_report_computes_space_time_once_per_record(db_log, extra):
    log, records = db_log
    counts = _count_calls(["report", str(log)] + extra)
    assert counts["space_time"] == records, counts
