"""End-to-end daemon tests: real sockets, real shard processes.

The headline test boots a live daemon and fires eight concurrent
replay clients at it (the issue's acceptance bar), then requires the
served rankings to be bit-identical — payload ``==`` — to a batch
:class:`DragAnalysis` of the same records. The truncation test proves
the robustness satellite: a client dying mid-frame increments
``repro_serve_truncated_streams_total`` and leaves every complete
frame aggregated, poisoning nothing.
"""

import io
import json
import socket
import threading
import time

import pytest

from repro.core.analyzer import DragAnalysis
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import (
    ServeSink,
    fetch_json,
    fetch_metrics_text,
    fetch_rankings,
    replay_log,
)
from repro.serve.merge import rankings_payload
from repro.serve.protocol import (
    HELLO_MAGIC,
    PROTOCOL_VERSION,
    encode_hello,
    encode_json_frame,
    read_json_frame_sync,
)
from repro.serve.server import ServeConfig, start_server_thread
from repro.serve.shard import InlineShard, ProcessShard
from repro.stream.codec import (
    FRAME_RECORD,
    FrameParser,
    V2FrameEncoder,
    V2LogWriter,
    _write_uvarint,
    read_v2_log,
)
from repro.core.profiler import HeapSample
from tests.core.test_analyzer import make_record


def write_v2_log(path, records, samples=(), end_time=1000):
    writer = V2LogWriter(path)
    for record in records:
        writer.write_record(record)
    for sample in samples:
        writer.write_sample(sample)
    writer.close(end_time=end_time)
    return path


def metric_value(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name) and " " in line and "{" not in line:
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"{name} not found in exposition")


def start(workers=2, inline=False, registry=None, drain_timeout=30.0):
    return start_server_thread(
        ServeConfig(
            port=0,
            http_port=0,
            workers=workers,
            inline=inline,
            drain_timeout=drain_timeout,
            quiet=True,
        ),
        registry=registry,
    )


def test_eight_concurrent_replay_clients_match_batch(all_profiles, tmp_path):
    """≥8 concurrent clients over real sockets; merged == batch."""
    records = all_profiles["db"].records
    end_time = all_profiles["db"].end_time
    log = write_v2_log(tmp_path / "db.dlog2", records, end_time=end_time)
    nclients = 8
    registry = MetricsRegistry()
    handle = start(workers=2, registry=registry)
    host, port = handle.ingest_addr
    acks = []
    errors = []

    def client(index: int) -> None:
        try:
            # Both replay flavours run concurrently: raw byte copies
            # and full record re-encodes (the live-profiler cost path).
            mode = "records" if index % 4 == 0 else "raw"
            acks.append(replay_log(log, host, port, mode=mode))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(nclients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors
    assert len(acks) == nclients
    assert all(ack["ok"] and not ack["truncated"] for ack in acks)
    assert all(ack["records"] == len(records) for ack in acks)

    batch = DragAnalysis(list(records) * nclients)
    for table in ("site", "nested", "never_used"):
        served = fetch_rankings(handle.http_addr, top=None, table=table)
        assert served == rankings_payload(batch, top=None, table=table)

    summary = fetch_json(handle.http_addr, "/summary")
    assert summary["objects"] == len(records) * nclients
    assert len(summary["streams"]) == nclients
    assert not any(s["truncated"] for s in summary["streams"])
    assert sum(s["records"] for s in summary["shards"]) == len(records) * nclients

    text = fetch_metrics_text(handle.http_addr)
    assert metric_value(text, "repro_serve_streams_total") == nclients
    assert metric_value(text, "repro_serve_records_total") == len(records) * nclients
    assert metric_value(text, "repro_serve_truncated_streams_total") == 0
    assert metric_value(text, "repro_serve_active_clients") == 0
    assert metric_value(text, "repro_serve_merges_total") >= 1
    assert "repro_serve_shard_records_total" in text
    assert "repro_serve_merge_seconds_bucket" in text

    final = handle.stop()
    assert not handle.thread.is_alive()
    assert rankings_payload(final, top=None) == rankings_payload(batch, top=None)


def test_mid_frame_disconnect_counts_truncated_and_poisons_nothing(tmp_path):
    records = [
        make_record(handle=i, site_label=f"Site.m:{i % 7}", last_use=0)
        for i in range(200)
    ]
    log = write_v2_log(tmp_path / "full.dlog2", records, end_time=5000)
    data = log.read_bytes()
    cut = len(data) * 6 // 10  # far from any frame boundary on purpose
    prefix = tmp_path / "prefix.dlog2"
    prefix.write_bytes(data[:cut])
    # What the daemon *should* keep: every complete frame of the prefix —
    # exactly what the lenient file reader recovers.
    kept = read_v2_log(prefix, strict=False).records
    assert 0 < len(kept) < len(records)

    registry = MetricsRegistry()
    handle = start(workers=2, inline=True, registry=registry)
    host, port = handle.ingest_addr

    with socket.create_connection((host, port), timeout=30) as sock:
        fp = sock.makefile("rwb")
        fp.write(encode_hello({"program": "dying-client"}))
        fp.write(data[:cut])
        fp.flush()
        ack = read_json_frame_sync(fp)
        assert ack["ok"]
        sock.shutdown(socket.SHUT_WR)  # die mid-frame
        fin = read_json_frame_sync(fp)
    assert fin["truncated"] is True
    assert fin["ok"] is False
    assert fin["records"] == len(kept)

    # The shard state is not poisoned: a healthy stream afterwards
    # aggregates on top of the prefix's complete frames.
    ack = replay_log(log, host, port, mode="raw")
    assert ack["ok"] and ack["records"] == len(records)

    batch = DragAnalysis(kept + list(records))
    served = fetch_rankings(handle.http_addr, top=None)
    assert served == rankings_payload(batch, top=None)

    text = fetch_metrics_text(handle.http_addr)
    assert metric_value(text, "repro_serve_truncated_streams_total") == 1
    assert metric_value(text, "repro_serve_streams_total") == 2

    summary = fetch_json(handle.http_addr, "/summary")
    flags = sorted(s["truncated"] for s in summary["streams"])
    assert flags == [False, True]
    handle.stop()


def test_bad_hello_metadata_is_refused_and_leaks_no_client():
    """A HELLO whose metadata is not a JSON object is refused: the
    connection closes without an ACK, no stream is opened, the active
    client gauge returns to 0, and stopping the daemon (what SIGTERM
    does) does not wait out the drain timeout for a departed client."""
    registry = MetricsRegistry()
    handle = start(workers=1, inline=True, registry=registry, drain_timeout=10.0)
    host, port = handle.ingest_addr
    hello = HELLO_MAGIC + bytes([PROTOCOL_VERSION]) + encode_json_frame(
        {"protocol": PROTOCOL_VERSION, "metadata": [1, 2]}
    )
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(hello)
        assert sock.recv(1) == b""  # closed, no ACK
    text = fetch_metrics_text(handle.http_addr)
    assert metric_value(text, "repro_serve_active_clients") == 0
    assert metric_value(text, "repro_serve_streams_total") == 0
    began = time.monotonic()
    handle.stop()
    assert time.monotonic() - began < 5.0


def test_garbage_after_handshake_is_truncated_not_fatal():
    handle = start(workers=1, inline=True)
    host, port = handle.ingest_addr
    with socket.create_connection((host, port), timeout=30) as sock:
        fp = sock.makefile("rwb")
        fp.write(encode_hello())
        fp.write(b"this is not a v2 log at all")
        fp.flush()
        read_json_frame_sync(fp)  # ACK
        sock.shutdown(socket.SHUT_WR)
        fin = read_json_frame_sync(fp)
    assert fin["truncated"] is True
    # the daemon is still fully alive
    assert fetch_json(handle.http_addr, "/healthz")["ok"] is True
    handle.stop()


def test_oversized_frame_ends_the_stream_and_serving_goes_on(tmp_path):
    """A client whose RECORD header declares 4 GiB gets its FIN as
    truncated while its connection is still open, without the daemon
    buffering what it sends; another client is then served in full."""
    registry = MetricsRegistry()
    handle = start(workers=2, inline=True, registry=registry)
    try:
        host, port = handle.ingest_addr
        header = io.BytesIO()
        V2FrameEncoder(header)
        frame = bytearray([FRAME_RECORD])
        _write_uvarint(frame, 4 << 30)
        with socket.create_connection((host, port), timeout=30) as sock:
            fp = sock.makefile("rwb")
            fp.write(encode_hello({"program": "greedy-client"}))
            fp.write(header.getvalue() + bytes(frame) + b"\0" * 65536)
            fp.flush()
            assert read_json_frame_sync(fp)["ok"]  # ACK
            fin = read_json_frame_sync(fp)  # no SHUT_WR: the daemon ends it
        assert fin["truncated"] is True and fin["ok"] is False
        assert fin["records"] == 0

        records = [make_record(handle=i, site_label=f"Site.m:{i % 5}") for i in range(40)]
        log = write_v2_log(tmp_path / "ok.dlog2", records, end_time=5000)
        ack = replay_log(log, host, port, mode="raw")
        assert ack["ok"] and ack["records"] == len(records)
        assert fetch_rankings(handle.http_addr, top=None) == rankings_payload(
            DragAnalysis(records), top=None
        )
        text = fetch_metrics_text(handle.http_addr)
        assert metric_value(text, "repro_serve_truncated_streams_total") == 1
    finally:
        handle.stop()


@pytest.mark.parametrize("payload", [b"\x00", b"\x08\x05"])
def test_malformed_record_payload_is_truncated_not_fatal(payload):
    """A well-framed RECORD whose payload does not parse (here 1 and 2
    bytes) is a corrupt stream: the client gets its FIN, the truncation
    counter moves, and every shard is told the stream ended."""
    registry = MetricsRegistry()
    handle = start(workers=1, inline=True, registry=registry)
    host, port = handle.ingest_addr
    body = io.BytesIO()
    V2FrameEncoder(body).write_record(make_record(handle=1))
    body.write(bytes([FRAME_RECORD, len(payload)]) + payload)
    with socket.create_connection((host, port), timeout=30) as sock:
        fp = sock.makefile("rwb")
        fp.write(encode_hello())
        fp.write(body.getvalue())
        fp.flush()
        read_json_frame_sync(fp)  # ACK
        sock.shutdown(socket.SHUT_WR)
        fin = read_json_frame_sync(fp)
    assert fin["truncated"] is True and fin["ok"] is False
    text = fetch_metrics_text(handle.http_addr)
    assert metric_value(text, "repro_serve_truncated_streams_total") == 1
    # end_stream dropped the stream's string table from the shard
    assert handle.server.shards[0]._state.tables == {}
    assert fetch_json(handle.http_addr, "/healthz")["ok"] is True
    handle.stop()


def _stream_with_undecodable_record(records, bad_index):
    """A v2 stream of ``records`` whose ``bad_index``-th RECORD payload
    lacks its last byte: well framed, so it is found only by the
    shard's decode."""
    body = io.BytesIO()
    encoder = V2FrameEncoder(body)
    for record in records:
        encoder.write_record(record)
    encoder.write_end(end_time=5000)
    header = io.BytesIO()
    V2FrameEncoder(header)
    out = bytearray(header.getvalue())
    seen = 0
    for frame_type, payload in FrameParser().feed_frames(body.getvalue()):
        if frame_type == FRAME_RECORD:
            if seen == bad_index:
                payload = payload[:-1]
            seen += 1
        out.append(frame_type)
        _write_uvarint(out, len(payload))
        out += payload
    return bytes(out)


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "process"])
def test_shard_counts_records_it_cannot_decode(inline):
    """Both shard flavours fold every payload that decodes and report
    the rest when the stream ends."""
    records = [make_record(handle=1), make_record(handle=2)]
    body = _stream_with_undecodable_record(records, bad_index=1)
    parser = FrameParser()
    good, bad = [p for t, p in parser.feed_frames(body) if t == FRAME_RECORD]
    shard = InlineShard(0) if inline else ProcessShard(0)
    try:
        shard.feed_strings(1, parser.strings)
        shard.feed_records(1, [good, bad])
        shard.feed_records(1, [good])
        analysis, seen = shard.snapshot()
        assert seen == 2 and analysis.object_count == 2
        assert shard.end_stream(1) == 1
        assert shard.end_stream(1) == 0
    finally:
        shard.stop()


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "process"])
def test_undecodable_record_truncates_the_stream(inline):
    """Across two shards, a record the shard cannot decode ends the
    stream truncated, whichever shard flavour serves it; every other
    record is folded and counted."""
    records = [
        make_record(handle=i, site_label=f"Site.m:{i % 7}", last_use=0)
        for i in range(200)
    ]
    kept = records[:50] + records[51:]
    data = _stream_with_undecodable_record(records, bad_index=50)
    registry = MetricsRegistry()
    handle = start(workers=2, inline=inline, registry=registry)
    try:
        host, port = handle.ingest_addr
        with socket.create_connection((host, port), timeout=30) as sock:
            fp = sock.makefile("rwb")
            fp.write(encode_hello())
            fp.write(data)
            fp.flush()
            read_json_frame_sync(fp)  # ACK
            fin = read_json_frame_sync(fp)
        assert fin["truncated"] is True and fin["ok"] is False
        assert fin["records"] == len(kept)
        summary = fetch_json(handle.http_addr, "/summary")
        assert summary["objects"] == len(kept)
        assert summary["streams"][0]["corrupt_records"] == 1
        assert fetch_rankings(handle.http_addr, top=None) == rankings_payload(
            DragAnalysis(kept), top=None
        )
        text = fetch_metrics_text(handle.http_addr)
        assert metric_value(text, "repro_serve_truncated_streams_total") == 1
        assert metric_value(text, "repro_serve_corrupt_records_total") == 1
    finally:
        handle.stop()


def test_one_site_spreads_over_every_shard(tmp_path):
    """Records are dealt out a batch at a time, not by site: a
    one-site stream longer than one 64 KiB socket read reaches both
    shards, and the merge still equals the batch analysis."""
    records = [
        make_record(handle=i, site_label="Hot.m:1", last_use=i % 3)
        for i in range(1, 12001)
    ]
    log = write_v2_log(tmp_path / "one.dlog2", records)
    assert log.stat().st_size > 2 * (1 << 16)  # several batches
    handle = start(workers=2, inline=True)
    try:
        host, port = handle.ingest_addr
        assert replay_log(log, host, port, mode="raw")["records"] == len(records)
        summary = fetch_json(handle.http_addr, "/summary")
        counts = [shard["records"] for shard in summary["shards"]]
        assert sum(counts) == len(records)
        assert all(count > 0 for count in counts), counts
        assert fetch_rankings(handle.http_addr, top=None) == rankings_payload(
            DragAnalysis(records), top=None
        )
    finally:
        handle.stop()


def test_serve_sink_streams_live_profile():
    """ServeSink is a ProfileSink: drive it event by event."""
    records = [
        make_record(handle=i, site_label=f"Live.m:{i % 3}", last_use=0)
        for i in range(60)
    ]
    handle = start(workers=1, inline=True)
    host, port = handle.ingest_addr
    sink = ServeSink(host, port, metadata={"program": "live.mj"})
    assert sink.stream_id == 1
    for record in records:
        sink.on_record(record)
    sink.on_sample(HeapSample(500, 4096, 10))
    sink.on_end(end_time=9999, finalizer_errors=2)
    assert sink.server_records == len(records)
    assert sink.server_truncated is False

    summary = fetch_json(handle.http_addr, "/summary")
    assert summary["objects"] == len(records)
    assert summary["samples"] == 1
    assert summary["end_time"] == 9999
    assert summary["streams"][0]["metadata"] == {"program": "live.mj"}

    served = fetch_rankings(handle.http_addr, top=None)
    assert served == rankings_payload(DragAnalysis(records), top=None)
    handle.stop()


def test_serve_sink_refuses_dead_daemon():
    from repro.errors import ProfileError

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    with pytest.raises(ProfileError, match="cannot reach serve daemon"):
        ServeSink("127.0.0.1", free_port, timeout=2.0)


def test_healthz_and_drain_lifecycle():
    handle = start(workers=1, inline=True)
    health = fetch_json(handle.http_addr, "/healthz")
    assert health["ok"] is True
    assert health["draining"] is False
    assert health["shards"] == 1
    final = handle.stop()
    assert final is not None
    assert not handle.thread.is_alive()


def test_follow_server_polls_rankings(tmp_path):
    """``repro watch --follow`` reads the daemon and feeds the same
    ``repro_live_*`` gauges the file-tail watcher does."""
    from repro.stream.watch import follow_server

    records = [
        make_record(handle=i, site_label=f"W.m:{i % 2}", last_use=0)
        for i in range(40)
    ]
    handle = start(workers=1, inline=True)
    host, port = handle.ingest_addr
    replay_path = write_v2_log(tmp_path / "w.dlog2", records, end_time=777)
    replay_log(replay_path, host, port, mode="raw")

    out = io.StringIO()
    registry = MetricsRegistry()
    hostport = f"{handle.http_addr[0]}:{handle.http_addr[1]}"
    summary = follow_server(
        hostport, once=True, top=5, out=out, registry=registry
    )
    assert summary["objects"] == len(records)
    rendered = out.getvalue()
    assert "repro watch" in rendered
    assert "W.m:" in rendered
    exposition = registry.exposition()
    assert metric_value(exposition, "repro_live_records_seen") == len(records)
    handle.stop()


def test_follow_and_log_watch_write_the_same_top_sites(tmp_path):
    """``watch --follow --metrics-json`` and ``watch LOG --metrics-json``
    over the same records write the same five-key ``top_sites``."""
    from repro.stream.watch import follow_server, watch_log

    records = [
        make_record(
            handle=i, size=8 * (1 + i % 5), created=10 * i,
            last_use=0 if i % 3 == 0 else 10 * i + 5,
            collected=10 * i + 400, site_label=f"W.m:{i % 4}",
        )
        for i in range(60)
    ]
    log = write_v2_log(tmp_path / "w.dlog2", records, end_time=1000)
    from_log = tmp_path / "log.json"
    watch_log(log, once=True, top=3, metrics_json=str(from_log),
              out=io.StringIO())

    handle = start(workers=2, inline=True)
    try:
        host, port = handle.ingest_addr
        replay_log(log, host, port, mode="raw")
        followed = tmp_path / "follow.json"
        hostport = f"{handle.http_addr[0]}:{handle.http_addr[1]}"
        follow_server(hostport, once=True, top=3,
                      metrics_json=str(followed), out=io.StringIO())
    finally:
        handle.stop()
    want = json.loads(from_log.read_text())["top_sites"]
    got = json.loads(followed.read_text())["top_sites"]
    assert len(want) == 3
    assert set(want[0]) == {"site", "drag", "objects", "bytes", "never_used"}
    assert got == want
