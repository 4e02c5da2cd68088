"""Clients of the serve daemon: live sinks, replayers, HTTP readers.

:class:`ServeSink` is a :class:`~repro.stream.sinks.ProfileSink`, so
``repro profile --serve HOST:PORT`` plugs the daemon into the exact
place a log file would go — the profiler cannot tell the difference,
and a TeeSink can feed both at once. On the wire it is a
:class:`~repro.stream.codec.V2FrameEncoder` writing to the socket, so
the daemon ingests byte-for-byte what a ``.dlog2`` file would hold.

:func:`replay_log` is the load generator: it streams a recorded log to
the daemon, either raw (v2 bytes copied verbatim — maximum ingest
pressure) or re-encoded record by record (the cost profile of a live
profiler client).
"""

from __future__ import annotations

import socket
from pathlib import Path
from typing import Optional, Union

from repro.errors import ProfileError
from repro.serve.protocol import (
    DEFAULT_PORT,
    encode_hello,
    parse_hostport,
    read_json_frame_sync,
)
from repro.stream.codec import MAGIC, V2FrameEncoder
from repro.stream.sinks import ProfileSink


def _connect(host: str, port: int, timeout: Optional[float]):
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class ServeSink(ProfileSink):
    """Stream profile events to a serve daemon over TCP.

    The handshake happens in the constructor, so a refused connection
    fails fast — before the profiled run starts — rather than surfacing
    mid-run. ``on_end`` sends the END frame, waits for the daemon's FIN
    acknowledging how many records it routed, and closes.
    """

    def __init__(
        self,
        host: str,
        port: int = DEFAULT_PORT,
        metadata: Optional[dict] = None,
        timeout: Optional[float] = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.stream_id: Optional[int] = None
        self.server_records: Optional[int] = None
        self.server_truncated: Optional[bool] = None
        self._closed = False
        try:
            self._sock = _connect(host, port, timeout)
        except OSError as exc:
            raise ProfileError(
                f"cannot reach serve daemon at {host}:{port}: {exc}"
            ) from exc
        self._file = self._sock.makefile("rwb")
        self._file.write(encode_hello(metadata))
        self._file.flush()
        ack = read_json_frame_sync(self._file, source=f"{host}:{port}")
        if not ack.get("ok"):
            raise ProfileError(f"{host}:{port}: serve daemon refused stream: {ack}")
        self.stream_id = ack.get("stream_id")
        self.shards = ack.get("shards")
        self._encoder = V2FrameEncoder(self._file, metadata=metadata)

    @property
    def count(self) -> int:
        return self._encoder.count

    def on_record(self, record) -> None:
        self._encoder.write_record(record)

    def on_sample(self, sample) -> None:
        self._encoder.write_sample(sample)
        self._file.flush()  # deep-GC points are the live-ness heartbeat

    def on_end(self, end_time: int, finalizer_errors: int = 0) -> None:
        if self._closed:
            return
        self._encoder.write_end(
            end_time=end_time, finalizer_errors=finalizer_errors
        )
        self._file.flush()
        self._sock.shutdown(socket.SHUT_WR)
        try:
            fin = read_json_frame_sync(
                self._file, source=f"{self.host}:{self.port}"
            )
            self.server_records = fin.get("records")
            self.server_truncated = fin.get("truncated")
        except ProfileError:
            pass
        self.close()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._file.close()
            except OSError:
                pass
            self._sock.close()


def replay_log(
    path: Union[str, Path],
    host: str,
    port: int = DEFAULT_PORT,
    mode: str = "records",
    metadata: Optional[dict] = None,
    chunk_size: int = 1 << 16,
    timeout: Optional[float] = 60.0,
    rate: Optional[float] = None,
    sample_bytes: Optional[int] = None,
    seed: int = 0,
) -> dict:
    """Feed a recorded profile log to the daemon; returns the FIN ack.

    ``mode="records"`` decodes the log (v1 or v2) and re-encodes every
    record through the sink path — each replay client pays the same
    per-record cost a live profiler would, which is what the throughput
    bench wants N of. ``mode="raw"`` requires a v2 file and copies its
    bytes verbatim — the fastest possible single producer, for stressing
    the ingest loop itself.

    ``rate`` (records mode only) paces the replay to roughly that many
    records per second — open-loop load generation, which is how a real
    profiler client behaves: it produces at the profiled program's
    allocation rate, not at socket speed.

    ``sample_bytes``/``seed`` (records mode only) byte-resample the log
    client-side before sending: each surviving record's weight is
    multiplied by the new Horvitz-Thompson correction, so the daemon's
    weighted aggregates still estimate the full log. ``sample_bytes=1``
    (or None) sends every record unchanged.
    """
    path = Path(path)
    if mode == "raw":
        if rate or (sample_bytes or 1) > 1:
            raise ValueError(
                "raw replay copies the log verbatim: rate and sample_bytes "
                "need mode='records'"
            )
        with open(path, "rb") as f:
            head = f.read(len(MAGIC))
            if head != MAGIC:
                raise ProfileError(f"{path}: raw replay needs a v2 log")
            sock = _connect(host, port, timeout)
            fp = sock.makefile("rwb")
            try:
                fp.write(encode_hello(metadata or {"replay": str(path)}))
                fp.write(head)
                while True:
                    chunk = f.read(chunk_size)
                    if not chunk:
                        break
                    fp.write(chunk)
                fp.flush()
                read_json_frame_sync(fp, source=f"{host}:{port}")  # ACK
                sock.shutdown(socket.SHUT_WR)
                return read_json_frame_sync(fp, source=f"{host}:{port}")
            finally:
                fp.close()
                sock.close()
    if mode != "records":
        raise ValueError(f"unknown replay mode {mode!r}")
    from repro.core.logfile import read_log

    loaded = read_log(path, strict=False)
    records = loaded.records
    if sample_bytes is not None and sample_bytes > 1:
        from repro.core.sampler import ByteSampler

        sampler = ByteSampler(sample_bytes, seed=seed)
        resampled = []
        for record in records:
            weight = sampler.sample(record.size)
            if weight:
                resampled.append(
                    record
                    if weight == 1.0
                    else record.with_weight(record.weight * weight)
                )
        records = resampled
    sink = ServeSink(
        host, port, metadata=metadata or {"replay": str(path)}, timeout=timeout
    )
    if rate:
        import time as _time

        started = _time.perf_counter()
        for index, record in enumerate(records):
            sink.on_record(record)
            if index % 64 == 63:
                ahead = (index + 1) / rate - (_time.perf_counter() - started)
                if ahead > 0:
                    _time.sleep(ahead)
    else:
        for record in records:
            sink.on_record(record)
    for sample in loaded.samples:
        sink.on_sample(sample)
    sink.on_end(loaded.end_time or 0, finalizer_errors=loaded.finalizer_errors or 0)
    return {
        "ok": not sink.server_truncated,
        "records": sink.server_records,
        "sent": sink.count,
        "truncated": sink.server_truncated,
    }


# -- HTTP read side --------------------------------------------------------


def _get(hostport: Union[str, tuple], path: str, timeout: float) -> str:
    """GET ``path`` from the daemon's HTTP port; the body as text."""
    from urllib.request import urlopen

    host, port = (
        parse_hostport(hostport) if isinstance(hostport, str) else hostport
    )
    with urlopen(f"http://{host}:{port}{path}", timeout=timeout) as resp:
        return resp.read().decode("utf-8")


def fetch_json(
    hostport: Union[str, tuple], path: str, timeout: float = 30.0
) -> dict:
    """GET a JSON endpoint from the daemon's HTTP port."""
    import json

    return json.loads(_get(hostport, path, timeout))


def fetch_rankings(
    hostport: Union[str, tuple],
    top: Optional[int] = None,
    table: str = "site",
    timeout: float = 30.0,
) -> dict:
    """GET /rankings; ``top=None`` asks for the full table."""
    top_arg = "all" if top is None else str(top)
    return fetch_json(
        hostport, f"/rankings?top={top_arg}&table={table}", timeout=timeout
    )


def fetch_metrics_text(hostport: Union[str, tuple], timeout: float = 30.0) -> str:
    """GET /metrics (Prometheus text exposition)."""
    return _get(hostport, "/metrics", timeout)
