"""The RECORD decode cache: same records as the uncached decoder, scoped
to one stream, capped, and one call per record.

``_decode_record_at`` keeps a per-stream cache from a record's tail
(the bytes after its leading varints) to the decoded tail. The oracle
is the decoder as it was before the cache
(:mod:`tests.stream.reference_decoder`): swapped in for the live one,
every reader must give the same records field for field, or the same
:class:`ProfileError`, on real logs and on every mutant of the codec
fuzz test.
"""

import io
import random
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.benchmarks.runner import compile_benchmark
from repro.core.logfile import read_log
from repro.core.profiler import profile_program
from repro.core.trailer import ObjectRecord
from repro.errors import ProfileError
from repro.mjava.compiler import compile_program
from repro.runtime.library import link
from repro.serve.shard import _ShardState
from repro.stream import codec
from repro.stream.codec import (
    FRAME_RECORD,
    FRAME_STRING,
    FrameParser,
    V2FrameEncoder,
    V2LogWriter,
    V2TailReader,
    _decode_record,
)
from repro.stream.sinks import LogWriterSink
from tests.core.test_analyzer import make_record
from tests.stream import reference_decoder
from tests.stream.test_codec_fuzz import MUTANTS, _base_log, _mutate

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "finalizers.mj"
CONFIGS = {
    "full": {},
    "sampled": {"sample_bytes": 4096, "seed": 0},
    "last_use_depth3": {"last_use_depth": 3},
}


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    """db, euler and the finalizer fixture, each at full rate, sampled
    and at ``--last-use-depth 3``, written by the profiler's log sink."""
    root = tmp_path_factory.mktemp("decode-cache")
    programs = {}
    for name in ("db", "euler"):
        bench = get_benchmark(name)
        programs[name] = (compile_benchmark(bench, revised=False),
                          bench.args_for("primary"), bench.interval_bytes)
    programs["finalizers"] = (
        compile_program(link(FIXTURE.read_text(encoding="utf-8")), main_class="Main"),
        ["400"], 2048,
    )
    out = {}
    for name, (program, args, interval) in programs.items():
        for config, kwargs in CONFIGS.items():
            path = root / f"{name}-{config}.dlog2"
            profile_program(program, args, interval_bytes=interval,
                            sink=LogWriterSink(V2LogWriter(path)), **kwargs)
            out[f"{name}-{config}"] = path
    return out


def fields(records):
    """Every slot of every record, with its type (``repr`` tells 1 from
    1.0 and True from 1)."""
    return repr([tuple(getattr(r, s) for s in ObjectRecord.__slots__) for r in records])


@contextmanager
def reference(monkeypatch):
    """Every reader decodes RECORDs with the oracle while this is open."""
    with monkeypatch.context() as patch:
        patch.setattr(
            codec, "_decode_record_at",
            lambda buf, pos, end, strings, tails:
                reference_decoder.decode_record_at(buf, pos, end, strings),
        )
        yield


def read_outcome(path, strict=True):
    try:
        log = read_log(path, strict=strict)
    except ProfileError as exc:
        return "error", str(exc)
    samples = [(s.time, s.reachable_bytes, s.object_count) for s in log.samples]
    return "ok", fields(log.records), samples, log.end_time, log.est_objects


def shard_outcome(data):
    """Decode each RECORD payload the way a serve shard does: one cache
    for the stream, the string table as of the record's frame."""
    try:
        frames = FrameParser().feed_frames(data)
    except ProfileError as exc:
        return "framing error", str(exc)
    strings, tails, out = [], {}, []
    for frame_type, payload in frames:
        if frame_type == FRAME_STRING:
            strings.append(payload.decode("utf-8"))
        elif frame_type == FRAME_RECORD:
            try:
                out.append(fields([_decode_record(payload, strings, tails)]))
            except ProfileError as exc:
                out.append(str(exc))
    return out


def feed_outcome(data, chunk):
    parser = FrameParser()
    events = []
    for start in range(0, len(data), chunk):
        events.extend(parser.feed(data[start:start + chunk]))
    return fields([value for kind, value in events if kind == "record"])


LOG_NAMES = [f"{name}-{config}" for name in ("db", "euler", "finalizers")
             for config in CONFIGS]


@pytest.mark.parametrize("name", LOG_NAMES)
def test_readers_match_reference_decoder(logs, monkeypatch, name):
    path = logs[name]
    data = path.read_bytes()
    tail = V2TailReader(path)
    new = (read_outcome(path), shard_outcome(data), feed_outcome(data, 997),
           fields([value for kind, value in tail.poll() if kind == "record"]))
    with reference(monkeypatch):
        tail = V2TailReader(path)
        old = (read_outcome(path), shard_outcome(data), feed_outcome(data, 997),
               fields([value for kind, value in tail.poll() if kind == "record"]))
    assert new[0][0] == "ok"
    assert new == old


def test_fuzz_mutants_match_reference_decoder(tmp_path, monkeypatch):
    base = _base_log(tmp_path / "base.dlog2")
    rng = random.Random(20011)  # the fuzz test's seed
    path = tmp_path / "mutant.dlog2"
    errors = 0
    for index in range(MUTANTS):
        mutant = _mutate(base, rng)
        path.write_bytes(mutant)
        new = [read_outcome(path, strict) for strict in (True, False)]
        new.append(shard_outcome(mutant))
        with reference(monkeypatch):
            old = [read_outcome(path, strict) for strict in (True, False)]
            old.append(shard_outcome(mutant))
        assert new == old, f"mutant {index}"
        errors += new[0][0] == "error"
    assert 100 < errors < MUTANTS  # both outcomes are exercised


# -- scope and cap -------------------------------------------------------


def _stream(label):
    """A small stream whose records name sites after ``label``."""
    out = io.BytesIO()
    encoder = V2FrameEncoder(out)
    for i in range(6):
        encoder.write_record(make_record(
            handle=i, site_label=f"{label}.m:{i % 2}", use_frame=f"{label}.use:1",
        ))
    encoder.write_end(end_time=100)
    return out.getvalue()


def _records_and_strings(data):
    parser = FrameParser()
    frames = parser.feed_frames(data)
    return [p for t, p in frames if t == FRAME_RECORD], parser.strings


def test_reset_gives_the_next_stream_its_own_strings():
    first, second = _stream("A"), _stream("B")
    payloads_a, strings_a = _records_and_strings(first)
    payloads_b, strings_b = _records_and_strings(second)
    # Byte-identical record tails against different tables: a cache that
    # outlived its table would hand the second stream the first's names.
    assert payloads_a == payloads_b and strings_a != strings_b
    parser = FrameParser()
    parser.feed(first)
    assert parser._tails
    parser.reset()
    assert not parser._tails
    records = [value for kind, value in parser.feed(second) if kind == "record"]
    assert {r.site_label for r in records} == {"B.m:0", "B.m:1"}
    assert {r.last_use_frame for r in records} == {"B.use:1"}


def test_shard_end_stream_gives_the_next_stream_its_own_strings():
    state = _ShardState()
    for label in ("A", "B"):
        payloads, strings = _records_and_strings(_stream(label))
        state.add_strings(1, strings)  # the same stream id, reused
        state.add_records(1, payloads)
        assert state.tails[1]
        assert state.end_stream(1, 100) == 0
        assert 1 not in state.tails
    sites = state.analysis.by_site
    assert {"A.m:0", "A.m:1", "B.m:0", "B.m:1"} <= set(sites)
    assert sum(group.count for group in sites.values()) == 12


def test_cache_stays_within_its_cap():
    """Every record carries a different weight, so no two tails match."""
    count = codec._TAIL_CACHE_LIMIT + 100
    out = io.BytesIO()
    encoder = V2FrameEncoder(out)
    for i in range(count):
        record = make_record(handle=i)
        record.weight = 2.0 + i
        encoder.write_record(record)
    encoder.write_end(end_time=100)
    data = out.getvalue()

    parser = FrameParser()
    records = [value for kind, value in parser.feed(data) if kind == "record"]
    assert [r.weight for r in records] == [2.0 + i for i in range(count)]
    assert len(parser._tails) == codec._TAIL_CACHE_LIMIT

    state = _ShardState()
    payloads, strings = _records_and_strings(data)
    state.add_strings(1, strings)
    state.add_records(1, payloads)
    assert state.records_seen == count
    assert len(state.tails[1]) == codec._TAIL_CACHE_LIMIT


def test_cached_tail_does_not_excuse_an_overrun_of_the_leading_varints():
    """A RECORD frame that ends inside its leading varints still raises,
    although the bytes after it are a tail the cache already holds."""
    out = io.BytesIO()
    encoder = V2FrameEncoder(out)
    encoder.write_record(make_record(handle=70_000, created=90_000, collected=99_000))
    valid = out.getvalue()
    payload = _records_and_strings(valid)[0][0]
    cut = bytes((FRAME_RECORD, 3)) + payload  # declares only 3 payload bytes
    parser = FrameParser(source="cut")
    parser.feed(valid)
    assert len(parser._tails) == 1
    with pytest.raises(ProfileError, match="cut: corrupt v2 frame"):
        parser.feed(cut)

    strings = _records_and_strings(valid)[1]
    tails = {}
    _decode_record(payload, strings, tails)
    assert len(tails) == 1
    for end in range(1, 6):
        with pytest.raises(ProfileError, match="corrupt v2 RECORD"):
            _decode_record(payload[:end], strings, tails)


# -- call budget ----------------------------------------------------------


def test_read_log_makes_about_one_codec_call_per_record(logs):
    """``sys.setprofile`` counts Python calls into the codec module while
    ``read_log`` reads db's log, after one warm-up read. Call counts do
    not depend on timing, so the ceiling is exact: one decoder call per
    record, plus what the cache misses, the deep-GC samples and the
    chunk loop cost. The decoder without the cache made about 15."""
    path = logs["db-full"]
    read_log(path)
    parser = FrameParser()
    parser.feed(path.read_bytes())
    misses = len(parser._tails)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == codec.__file__:
            calls += 1

    sys.setprofile(count)
    try:
        log = read_log(path)
    finally:
        sys.setprofile(None)
    records, samples = len(log.records), len(log.samples)
    assert records > 5000
    assert calls <= records + 12 * misses + 4 * samples + 50, (calls, records)
    assert calls / records < 1.2
