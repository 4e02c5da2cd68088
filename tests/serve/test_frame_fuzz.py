"""Byte-mutation fuzzing of the daemon's ingest path.

About two hundred seeded mutants of a small v2 log (bit flips,
truncations, inserted and deleted bytes) are streamed raw, one
connection each, to a single inline daemon with two shards. Every
connection must end within a timeout, either with a FIN or as a
counted truncation; the event loop must log no unhandled task
exception; the daemon must still answer ``/healthz`` and
``/rankings``; and the streams that ended ok plus the truncated ones
must account for every stream accepted.
"""

import logging
import random
import socket

from repro.obs.metrics import MetricsRegistry
from repro.serve.client import fetch_json, fetch_metrics_text
from repro.serve.protocol import ProtocolError, encode_hello, read_json_frame_sync
from repro.serve.server import ServeConfig, start_server_thread
from tests.serve.test_server import metric_value
from tests.stream.test_codec_fuzz import _base_log, _mutate

MUTANTS = 200
TIMEOUT = 5.0


def _stream(addr, data: bytes):
    """Send one stream; returns ``(stream_id, FIN or None)``. A hang
    raises ``socket.timeout`` and fails the test."""
    with socket.create_connection(addr, timeout=TIMEOUT) as sock:
        fp = sock.makefile("rwb")
        fp.write(encode_hello({"program": "fuzz"}))
        fp.flush()
        ack = read_json_frame_sync(fp)
        fp.write(data)
        fp.flush()
        sock.shutdown(socket.SHUT_WR)
        try:
            return ack["stream_id"], read_json_frame_sync(fp)
        except (ProtocolError, ConnectionResetError):
            return ack["stream_id"], None


def test_mutated_streams_end_cleanly(tmp_path, caplog):
    base = _base_log(tmp_path / "base.dlog2")
    rng = random.Random(20013)
    registry = MetricsRegistry()
    handle = start_server_thread(
        ServeConfig(port=0, http_port=0, workers=2, inline=True, quiet=True),
        registry=registry,
    )
    try:
        with caplog.at_level(logging.ERROR):
            fins = [_stream(handle.ingest_addr, _mutate(base, rng)) for _ in range(MUTANTS)]
            assert fetch_json(handle.http_addr, "/healthz")["ok"] is True
            assert "sites" in fetch_json(handle.http_addr, "/rankings?top=all")
            summary = fetch_json(handle.http_addr, "/summary")
            text = fetch_metrics_text(handle.http_addr)
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

        streams = {s["stream_id"]: s for s in summary["streams"]}
        for stream_id, fin in fins:
            info = streams[stream_id]
            assert info["ended"], info
            if fin is None:
                assert info["truncated"], info
            else:
                assert fin["truncated"] == info["truncated"], (fin, info)
                assert fin["ok"] is not fin["truncated"]
        ok = sum(1 for s in streams.values() if not s["truncated"])
        truncated = metric_value(text, "repro_serve_truncated_streams_total")
        total = metric_value(text, "repro_serve_streams_total")
        assert total == len(streams) == MUTANTS
        assert ok + truncated == total
        # The mutants exercise both outcomes, not just one of them.
        assert ok > 10 and truncated > 10, (ok, truncated)
    finally:
        handle.stop()
