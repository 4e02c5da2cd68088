"""Output goldens for the offline analysis commands, and a decoder
round-trip property.

The digests pin the exact bytes of ``repro report LOG``, ``repro
report LOG --nested`` (the nested-site fold), ``repro report LOG
--app-only --top 0`` (the library filter, every site), ``repro
timeline LOG --json -`` and the ``--metrics-json`` file of ``repro
watch LOG --once`` on the db and euler benchmark logs, at full rate and
byte-sampled (``--sample-bytes 4096 --seed 0``). Any change to the
decoder or to the analysis folds must keep every one of them. The log
digests come first, so a change in the profiler itself shows up as
such and not as an analysis regression.
"""

import hashlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.benchmarks.registry import get_benchmark
from repro.core.trailer import ObjectRecord
from repro.stream.codec import FrameParser, V2FrameEncoder, V2TailReader

SAMPLED = ["--sample-bytes", "4096", "--seed", "0"]

GOLDENS = {
    ("db", "full"): {
        "log": "409671f50a6bbf28265cf1c7ebd1ded17aa7b4038fabb2abfa3bab9704f4a897",
        "report": "e93ec7e0ec3764f2185a30c9acbc36c15a1362b4510caab4ce57332ed5fc0e30",
        "report_nested": "d129d2dd42bbb4e92e444f5ecf10888834a982aaf39dca191e01078865ae1100",
        "report_app_all": "0a9b6a559a622fec75149d0f71071ddb7c053ad17cbf36acf117910b7b91a428",
        "timeline": "d5b1cec22c37c7f706f47f142b31fc22b4ba5304e111f6a14c3a32e485af221c",
        "watch": "3aeea3682893b8e6c598f31ab768fd1533579b1003f4970554b9fd5a139654d9",
    },
    ("db", "sampled"): {
        "log": "314c099a9d2a0c5ea82eadc89619ca4263e800e9fcf05b42747a372ed228328c",
        "report": "bfe81c9cb5694f00e767d6b13f5c42f7f42c2698f62c3951f0e37d00441bc289",
        "report_nested": "69916e6ce92317c303ba526a3899139cd3e369a5ade03f9ad3a7ab61ac041c82",
        "report_app_all": "bfe81c9cb5694f00e767d6b13f5c42f7f42c2698f62c3951f0e37d00441bc289",
        "timeline": "45774899993832f7fcf52c48ab85c7449f8d1f2952d182ae63deea6945c1616e",
        "watch": "ea325fe96c8344b76308a08441b1b1c844a6cde480535c737049e9239bca6717",
    },
    ("euler", "full"): {
        "log": "da4c935092b9966a7b93664589add0b744badf3d26ae3621fa1bf4ed5638ef80",
        "report": "34cc0b175c9ae4492a32cd17528a1c59aab1b0b7c3484a7cf7314cb7fcec78ad",
        "report_nested": "b29c57ceb93330d92181de12efe0b5bd17a2ab18df6d7bb761e01fcec6dd0afe",
        "report_app_all": "94c36354a76fb66317fdf5784824504680c2fecb61f36132da752e9abddbf92e",
        "timeline": "c6388e5cf2b000831eff52cd7890dc33a2abce5bd726521e1d02c4eb58962317",
        "watch": "924cbdf7171602cbffe3b60b13ce5f5af5f02e3d8c64f53df1440fa3cf989db4",
    },
    ("euler", "sampled"): {
        "log": "fdaa14a3ff5cdb8ead061c2ed0259134036cf1c7cba86b51b998196213c3b72b",
        "report": "37229e30367a7b794bea6d51bf9b58b7ed864448130b8a579d771ca21c610dc5",
        "report_nested": "0a616df6ef97195373970c0f30641135753d372e128a3aa5cffa467b8553bcf8",
        "report_app_all": "37229e30367a7b794bea6d51bf9b58b7ed864448130b8a579d771ca21c610dc5",
        "timeline": "3d586d4fbf7becbe9fe4d5c4903ac4857c9da19c515a8f7d2aafb5152db5ad99",
        "watch": "3d311db0ee16404ea87c115922708bca63654eb72fbcb985aec5a869c8bc03b2",
    },
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _cli(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv
    return out.getvalue()


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    """The benchmark logs, profiled the way the benchmark profiles them."""
    work = tmp_path_factory.mktemp("goldens")
    out = {}
    for name in ("db", "euler"):
        bench = get_benchmark(name)
        program = work / f"{name}.mj"
        program.write_text(bench.original, encoding="utf-8")
        for rate, extra in (("full", []), ("sampled", SAMPLED)):
            log = work / f"{name}-{rate}.dlog2"
            _cli(["profile", str(program), "--main", bench.main_class,
                  "--interval", str(bench.interval_bytes), "--sink", "stream",
                  "--log", str(log)] + extra + list(bench.primary_args))
            out[name, rate] = log
    return out


@pytest.mark.parametrize("name,rate", sorted(GOLDENS))
def test_analysis_outputs_match_goldens(logs, name, rate):
    log = logs[name, rate]
    golden = GOLDENS[name, rate]
    assert _sha(log.read_bytes()) == golden["log"], "the profile log itself changed"
    assert _sha(_cli(["report", str(log)])) == golden["report"]
    assert _sha(_cli(["report", str(log), "--nested"])) == golden["report_nested"]
    assert _sha(
        _cli(["report", str(log), "--app-only", "--top", "0"])
    ) == golden["report_app_all"]
    assert _sha(_cli(["timeline", str(log), "--json", "-"])) == golden["timeline"]
    metrics = log.with_suffix(".metrics.json")
    _cli(["watch", str(log), "--once", "--metrics-json", str(metrics)])
    assert _sha(metrics.read_bytes()) == golden["watch"]


# -- decoder round trip -----------------------------------------------------

_labels = st.sampled_from(
    ["A.m:1", "B.<init>:2", "Ünïcode.m:3", "C.n:4", "x" * 200, "Main.main:9"]
)
_big = st.integers(min_value=0, max_value=2 ** 48)  # multi-byte varints


@st.composite
def _records(draw):
    used = draw(st.booleans())
    return ObjectRecord(
        handle=draw(_big),
        type_name=draw(st.sampled_from(["Object", "char[]", "Node", "Ärger[]"])),
        size=draw(st.integers(min_value=0, max_value=2 ** 40)),
        creation_time=draw(_big),
        first_use_time=draw(_big) if used else 0,
        last_use_time=draw(_big) if used else 0,
        collection_time=draw(_big),
        alloc_site=draw(st.none() | st.integers(min_value=0, max_value=2 ** 20)),
        site_label=draw(_labels),
        site_kind=draw(st.sampled_from(["new", "newarray"])),
        site_is_library=draw(st.booleans()),
        nested_alloc=tuple(draw(st.lists(_labels, max_size=5))),
        last_use_frame=draw(st.none() | _labels),
        last_use_chain=draw(st.none() | st.lists(_labels, max_size=4).map(tuple)),
        excluded=draw(st.booleans()),
        survived_to_end=draw(st.booleans()),
        weight=draw(st.just(1.0) | st.floats(min_value=1.0, max_value=1e12)),
    )


def _splits(data: bytes, seed: int):
    rng = random.Random(seed)
    pos = 0
    while pos < len(data):
        step = rng.choice([1, 2, 3, 7, 64, 4096])
        yield data[pos:pos + step]
        pos += step


@settings(max_examples=60, deadline=None)
@given(records=st.lists(_records(), min_size=1, max_size=25),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_decoders_round_trip_at_any_chunk_split(tmp_path_factory, records, seed):
    out = io.BytesIO()
    encoder = V2FrameEncoder(out, metadata={"program": "prop.mj"})
    for record in records:
        encoder.write_record(record)
    encoder.write_end(end_time=77)
    data = out.getvalue()
    want = [r.to_dict() for r in records]

    parser = FrameParser()
    events = [event for chunk in _splits(data, seed) for event in parser.feed(chunk)]
    assert [r.to_dict() for kind, r in events if kind == "record"] == want
    assert events[-1] == ("end", 77) and not parser.truncated

    path = tmp_path_factory.mktemp("tail") / "growing.dlog2"
    path.write_bytes(b"")
    tail = V2TailReader(path)
    polled = []
    for chunk in _splits(data, seed + 1):
        with open(path, "ab") as f:
            f.write(chunk)
        polled.extend(tail.poll())
    assert [r.to_dict() for kind, r in polled if kind == "record"] == want
    assert tail.ended and tail.end_time == 77
