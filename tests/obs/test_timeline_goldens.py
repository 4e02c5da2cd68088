"""Byte-identity goldens of ``repro timeline LOG --json -``.

Each digest is the SHA-256 of the command's stdout, computed before the
timeline became a view over the drag aggregate (the builder then kept
its own copy of every count, byte and drag total). The payload must
not move by a byte: db and euler at full rate, and db byte-sampled,
where every total and bin is a weighted sum.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro import cli
from repro.benchmarks.registry import get_benchmark

TIMELINE_GOLDENS = {
    ("db", "full"):
        "d5b1cec22c37c7f706f47f142b31fc22b4ba5304e111f6a14c3a32e485af221c",
    ("euler", "full"):
        "c6388e5cf2b000831eff52cd7890dc33a2abce5bd726521e1d02c4eb58962317",
    ("db", "sampled"):
        "5b297fd0a93f134575ec872ddbede9ed1b36093d695ff6240a5a59bf3dc3ae65",
}

SAMPLED = ["--sample-bytes", "4096", "--seed", "1"]


def _run(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("name,rate", sorted(TIMELINE_GOLDENS))
def test_timeline_json_matches_golden(tmp_path, name, rate):
    bench = get_benchmark(name)
    source = tmp_path / f"{name}.mj"
    source.write_text(bench.original, encoding="utf-8")
    log = tmp_path / f"{name}.dlog2"
    _run(["profile", str(source), "--main", bench.main_class,
          "--interval", str(bench.interval_bytes), "--log", str(log)]
         + (SAMPLED if rate == "sampled" else [])
         + list(bench.primary_args))
    body = _run(["timeline", str(log), "--json", "-"])
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    assert digest == TIMELINE_GOLDENS[name, rate]
