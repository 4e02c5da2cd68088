"""The ``repro serve`` daemon: drag profiling as a service.

One asyncio process accepts many concurrent v2 profile streams over
TCP, deals each batch of raw RECORD frames, unread, to the next of N
shard workers in turn (see :mod:`repro.serve.shard`: the shard owns the
one record decode), and answers HTTP on a second port:

* ``GET /rankings?top=K&table=site|nested|never_used`` — live per-site
  drag rankings, merged on demand from the shard snapshots; the body is
  exactly :func:`repro.serve.merge.rankings_payload`, i.e. the same
  serialization ``repro report`` produces from a batch analysis.
* ``GET /summary`` — stream/shard totals.
* ``GET /timeline?top=K`` — the live heap timeline
  (:meth:`~repro.obs.timeline.TimelineBuilder.payload`): binned
  Figure-2 series, per-site drag strips, lifetime histograms, and the
  deep-GC snapshot markers decoded from SAMPLE frames. Shards maintain
  the record-derived series; the loop keeps the markers (SAMPLE frames
  are never routed) and splices them in at serve time.
* ``GET /healthz`` — liveness + drain state, and each shard's liveness.
* ``GET /metrics`` — Prometheus text from the
  :class:`~repro.obs.metrics.MetricsRegistry`; the record-byte,
  weighted and sample-rate gauges are set from the merged analysis at
  each scrape, so they equal ``/summary``'s totals.

Each read snapshots and merges only what it serves:
``/rankings?table=nested`` the shards' analyses, the other
``/rankings`` tables, ``/summary`` and ``/metrics`` the same analyses
without their nested partition, ``/timeline`` their timelines. A
``top`` or ``table`` the endpoint cannot serve is a ``400 Bad
Request`` with a JSON ``error`` body; a read whose snapshot round finds
a shard gone is a ``503 Service Unavailable`` naming the shard. A
stream that finds a shard gone is ended on the other shards, read to
its end without routing more, and answered with a FIN of ``ok: false,
truncated: true`` whose ``error`` names the shard.

A read reuses its part's last merge while no shard state has changed:
the daemon counts the shard calls that change what a snapshot returns
(``feed_records`` and ``end_stream``) as they start and finish, and a
kept merge is served only if none is under way and none has finished
since its snapshots were taken. A merge is kept only if no change was
under way when its snapshots started and none finished before they
returned, so a reused merge is exactly what a fresh one would return.
``repro_serve_merges_total`` and ``repro_serve_merge_seconds`` count
real merges only.

SIGTERM/SIGINT drain gracefully: stop accepting, let in-flight streams
finish (bounded by ``drain_timeout``), take a final merge, stop the
workers, exit 0.
"""

from __future__ import annotations

import asyncio
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import ProfileError
from repro.obs.metrics import MetricsRegistry
from repro.serve.merge import RANKINGS_TABLES, merge_snapshots, rankings_payload
from repro.serve.protocol import (
    DEFAULT_PORT,
    ProtocolError,
    encode_json_frame,
    read_hello,
)
from repro.serve.shard import InlineShard, make_shards
from repro.obs.timeline import DEFAULT_BIN_BYTES, TimelineBuilder
from repro.stream.aggregate import StreamingDragAnalysis
from repro.stream.codec import (
    FRAME_RECORD,
    FRAME_SAMPLE,
    FrameParser,
    _CORRUPT,
    decode_sample,
)

_MERGE_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


class BadRequest(Exception):
    """A read's query string asks for something the endpoint cannot
    serve; answered with ``400 Bad Request``."""

    status = "400 Bad Request"


class ShardUnavailable(Exception):
    """A shard call failed because the shard's worker is gone. A read
    answers ``503 Service Unavailable``; a stream ends truncated."""

    status = "503 Service Unavailable"


class ServeConfig:
    """Everything ``repro serve`` needs to boot."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        http_port: Optional[int] = None,
        workers: int = 4,
        inline: bool = False,
        top_k: int = 10,
        drain_timeout: float = 10.0,
        quiet: bool = False,
        snapshot_file: Optional[str] = None,
        timeline_bin_bytes: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        # port 0 means "any free port"; http can't default to 0+1 then.
        self.http_port = (
            http_port if http_port is not None else (port + 1 if port else 0)
        )
        self.workers = workers
        self.inline = inline
        self.top_k = top_k
        self.drain_timeout = drain_timeout
        self.quiet = quiet
        # Optional heap snapshot file (from `profile --snapshot`): when
        # set, GET /snapshot serves its dominator-tree retained-size
        # summary. The file is parsed lazily and re-read when it grows,
        # so a profiler can stream snapshots into it mid-run.
        self.snapshot_file = snapshot_file
        # Heap-timeline bin width for GET /timeline. Defaults on: each
        # shard folds into a TimelineBuilder, its analysis plus O(bins +
        # sites) of bins, and only /timeline reads snapshot the bins.
        # 0 disables the timeline entirely.
        self.timeline_bin_bytes = (
            DEFAULT_BIN_BYTES if timeline_bin_bytes is None else timeline_bin_bytes
        )


class StreamInfo:
    """Book-keeping for one client connection."""

    __slots__ = (
        "stream_id", "peer", "metadata", "frames", "records", "samples",
        "bytes", "ended", "truncated", "end_time", "corrupt_records",
    )

    def __init__(self, stream_id: int, peer: str, metadata: dict) -> None:
        self.stream_id = stream_id
        self.peer = peer
        self.metadata = metadata
        self.frames = 0
        self.records = 0
        self.samples = 0
        self.bytes = 0
        self.ended = False
        self.truncated = False
        self.end_time: Optional[int] = None
        # Routed records a shard could not decode (not in ``records``).
        self.corrupt_records = 0

    def to_dict(self) -> dict:
        return {
            "stream_id": self.stream_id,
            "peer": self.peer,
            "metadata": self.metadata,
            "frames": self.frames,
            "records": self.records,
            "samples": self.samples,
            "bytes": self.bytes,
            "ended": self.ended,
            "truncated": self.truncated,
            "end_time": self.end_time,
            "corrupt_records": self.corrupt_records,
        }


class DragServer:
    """The daemon. Construct, then :meth:`run` (blocking, installs
    signal handlers) or :func:`start_server_thread` (tests, benches)."""

    def __init__(
        self, config: Optional[ServeConfig] = None, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.config = config or ServeConfig()
        self.registry = registry or MetricsRegistry()
        self.shards = make_shards(
            self.config.workers,
            inline=self.config.inline,
            timeline_bin_bytes=self.config.timeline_bin_bytes or None,
        )
        # Deep-GC snapshot markers for /timeline: SAMPLE frames are not
        # routed to shards, so the accept loop decodes and keeps them.
        self._timeline_samples: List[List[int]] = []
        self.streams: Dict[int, StreamInfo] = {}
        self.final_analysis = None
        self.started_at: Optional[float] = None
        self.ingest_addr: Optional[Tuple[str, int]] = None
        self.http_addr: Optional[Tuple[str, int]] = None
        self._next_stream_id = 0
        # The shard the next batch of records goes to.
        self._next_shard = 0
        self._active = 0
        self._draining = False
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ingest_server = None
        self._http_server = None
        # Shard calls that change what a snapshot returns, started and
        # finished, and per snapshot part the last merge worth reusing:
        # (changes finished when its snapshots were taken, result).
        self._changes_started = 0
        self._changes_finished = 0
        self._merged: Dict[str, Tuple[int, tuple]] = {}
        # /snapshot cache: (file size at parse time, summary payload).
        self._snapshot_cache: Optional[Tuple[int, dict]] = None
        # Dedicated pool for blocking shard-pipe calls: sized so every
        # shard can have an in-flight feed plus a snapshot round.
        self._pool = ThreadPoolExecutor(
            max_workers=2 * len(self.shards) + 4,
            thread_name_prefix="repro-serve-shard-io",
        )

        reg = self.registry
        self._m_streams = reg.counter(
            "repro_serve_streams_total", "Client streams accepted")
        self._m_truncated = reg.counter(
            "repro_serve_truncated_streams_total",
            "Streams that disconnected mid-frame, without an END frame,"
            " or with a frame that did not decode")
        self._m_corrupt_records = reg.counter(
            "repro_serve_corrupt_records_total",
            "Routed records a shard could not decode")
        self._m_bytes = reg.counter(
            "repro_serve_bytes_ingested_total", "Raw bytes read from clients")
        self._m_frames = reg.counter(
            "repro_serve_frames_total", "v2 frames parsed from clients")
        self._m_records = reg.counter(
            "repro_serve_records_total", "Object records routed to shards")
        self._m_samples = reg.counter(
            "repro_serve_samples_total", "Deep-GC heap samples seen")
        self._m_shard_records = reg.counter(
            "repro_serve_shard_records_total",
            "Object records routed, per shard", labelnames=("shard",))
        self._m_active = reg.gauge(
            "repro_serve_active_clients", "Currently connected profile streams")
        self._m_merges = reg.counter(
            "repro_serve_merges_total", "On-demand shard merges performed")
        self._m_merge_latency = reg.histogram(
            "repro_serve_merge_seconds",
            "Latency of snapshot+merge across all shards",
            buckets=_MERGE_BUCKETS)
        self._m_http = reg.counter(
            "repro_serve_http_requests_total", "HTTP requests served",
            labelnames=("path",))
        # Weight accounting, set from the merged analysis at each
        # scrape: observed vs weight-estimated totals over every folded
        # record, and the effective sampling rate (1 == full rate).
        self._m_weighted_records = reg.gauge(
            "repro_serve_weighted_records_total",
            "Weight-estimated object records represented by folded records")
        self._m_weighted_bytes = reg.gauge(
            "repro_serve_weighted_bytes_total",
            "Weight-estimated allocation bytes represented by folded records")
        self._m_record_bytes = reg.gauge(
            "repro_serve_record_bytes_total",
            "Observed allocation bytes carried by folded records")
        self._m_rate = reg.gauge(
            "repro_serve_effective_sample_rate",
            "Observed record bytes / weight-estimated bytes (1 = full rate)")
        self._m_timeline_requests = reg.counter(
            "repro_timeline_requests_total", "GET /timeline requests served")
        self._m_timeline_markers = reg.counter(
            "repro_timeline_markers_total",
            "Deep-GC snapshot markers recorded for the timeline")
        self._m_timeline_bins = reg.gauge(
            "repro_timeline_bins", "Bins in the last merged timeline payload")
        self._m_timeline_sites = reg.gauge(
            "repro_timeline_sites", "Sites in the last merged timeline")
        self._m_timeline_bin_bytes = reg.gauge(
            "repro_timeline_bin_bytes",
            "Configured timeline bin width (0 = timeline disabled)")
        self._m_timeline_bin_bytes.set(self.config.timeline_bin_bytes or 0)
        # Pre-create one series per shard so /metrics shows zeros early.
        for i in range(len(self.shards)):
            self._m_shard_records.labels(shard=str(i))

    def _log(self, message: str) -> None:
        if not self.config.quiet:
            print(f"[serve] {message}", file=sys.stderr, flush=True)

    # -- shard plumbing ---------------------------------------------------

    async def _call(self, shard, method: str, *args):
        """Invoke a shard op; inline shards run on the loop, process
        shards on the blocking-IO pool (their pipes backpressure). A
        pipe that fails raises :class:`ShardUnavailable`."""
        fn = getattr(shard, method)
        if isinstance(shard, InlineShard):
            return fn(*args)
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._pool, fn, *args
            )
        except (EOFError, OSError) as exc:
            raise ShardUnavailable(
                f"shard {shard.index} is unavailable ({type(exc).__name__})"
            ) from exc

    async def _change(self, shard, method: str, *args):
        """A shard call that changes what its snapshots return, counted
        as it starts and finishes for :meth:`merged`'s reuse rule."""
        self._changes_started += 1
        try:
            return await self._call(shard, method, *args)
        finally:
            self._changes_finished += 1

    async def merged(self, part: str = "analysis"):
        """Snapshot ``part`` of every shard and merge associatively —
        the on-demand read path: site-only analyses behind /summary,
        /metrics and most /rankings tables, whole analyses behind
        /rankings?table=nested, timelines behind /timeline. Returns the
        part's last merge instead while no shard state has changed
        since it was taken (see the module docstring), so every read
        it serves shares the result: callers only read it."""
        finished = self._changes_finished
        settled = finished == self._changes_started
        kept = self._merged.get(part)
        if settled and kept is not None and kept[0] == finished:
            return kept[1]
        started = time.perf_counter()
        snaps = await asyncio.gather(
            *(self._call(shard, "snapshot", part) for shard in self.shards)
        )
        into = None
        if part == "sites":
            into = StreamingDragAnalysis(nested=False)
        elif part == "timeline":
            into = TimelineBuilder(bin_bytes=self.config.timeline_bin_bytes)
        result = (
            merge_snapshots((state for state, _ in snaps), into),
            [count for _, count in snaps],
        )
        self._m_merges.inc()
        self._m_merge_latency.observe(time.perf_counter() - started)
        if settled and self._changes_finished == finished:
            self._merged[part] = (finished, result)
        else:
            self._merged.pop(part, None)
        return result

    # -- ingest -----------------------------------------------------------

    async def _route_frames(self, info: StreamInfo, parser: FrameParser,
                            frames, sent_strings: int) -> int:
        """Send a batch of raw frames on: the string-table delta to
        every shard, then the batch's RECORD payloads, unread, to the
        next shard in turn. Returns the new count of strings already
        broadcast."""
        payloads: List[bytes] = []
        try:
            for frame_type, payload in frames:
                if frame_type == FRAME_RECORD:
                    payloads.append(payload)
                elif frame_type == FRAME_SAMPLE:
                    info.samples += 1
                    self._m_samples.inc()
                    if self.config.timeline_bin_bytes:
                        # Kept loop-side as timeline snapshot markers.
                        self._timeline_samples.append(list(decode_sample(payload)))
                        self._m_timeline_markers.inc()
        except _CORRUPT as exc:
            # A well-framed SAMPLE whose payload does not parse: the
            # same verdict as a frame that does not parse.
            raise ProfileError(
                f"{parser.source}: corrupt v2 frame payload: {exc}"
            ) from exc
        info.frames += len(frames)
        info.records += len(payloads)
        self._m_frames.inc(len(frames))
        new_strings = parser.strings[sent_strings:]
        if new_strings:
            # String ids are stream-scoped and referenced by any later
            # record, so the table delta goes to every shard.
            await asyncio.gather(*(
                self._call(shard, "feed_strings", info.stream_id, new_strings)
                for shard in self.shards
            ))
            sent_strings = len(parser.strings)
        if payloads:
            index = self._next_shard
            self._next_shard = (index + 1) % len(self.shards)
            self._m_records.inc(len(payloads))
            self._m_shard_records.labels(shard=str(index)).inc(len(payloads))
            await self._change(
                self.shards[index], "feed_records", info.stream_id, payloads
            )
        return sent_strings

    async def _handle_ingest(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "<unknown>"
        try:
            metadata = await read_hello(reader, source=peer)
        except (ProtocolError, ConnectionError, OSError):
            writer.close()
            return
        self._next_stream_id += 1
        info = StreamInfo(self._next_stream_id, peer, metadata)
        self.streams[info.stream_id] = info
        self._m_streams.inc()
        parser = FrameParser(source=f"stream-{info.stream_id}")
        corrupt = False
        error: Optional[str] = None
        sent_strings = 0
        # Counted from here to the finally below, so no exit path can
        # leave a departed client holding up the drain.
        self._active += 1
        self._m_active.set(self._active)
        try:
            self._log(
                f"stream {info.stream_id} connected from {peer} "
                f"({metadata.get('program', '?')})"
            )
            writer.write(encode_json_frame({
                "ok": True,
                "stream_id": info.stream_id,
                "shards": len(self.shards),
            }))
            await writer.drain()
            while True:
                chunk = await reader.read(1 << 16)
                if not chunk:
                    break
                info.bytes += len(chunk)
                self._m_bytes.inc(len(chunk))
                try:
                    frames = parser.feed_frames(chunk)
                    if error is None:
                        sent_strings = await self._route_frames(
                            info, parser, frames, sent_strings
                        )
                except ProfileError:
                    # A poisoned stream kills this connection only; the
                    # shards never see the batch holding the bad frame.
                    corrupt = True
                    break
                except ShardUnavailable as exc:
                    # Read on to the client's END, so it gets its FIN.
                    error = str(exc)
                if parser.ended:
                    break
        except (ConnectionError, OSError):
            pass
        finally:
            self._active -= 1
            self._m_active.set(self._active)
        ends = await asyncio.gather(
            *(
                self._change(shard, "end_stream", info.stream_id, parser.end_time)
                for shard in self.shards
            ),
            return_exceptions=True,
        )
        for end in ends:
            if isinstance(end, ShardUnavailable):
                error = error or str(end)
            elif isinstance(end, BaseException):
                raise end
            else:
                info.corrupt_records += end
        if info.corrupt_records:
            # Payloads the shard could not decode: folded nowhere, so
            # not counted as records.
            info.records -= info.corrupt_records
            self._m_corrupt_records.inc(info.corrupt_records)
        info.ended = True
        info.end_time = parser.end_time
        info.truncated = (
            corrupt or parser.truncated or bool(info.corrupt_records)
            or error is not None
        )
        if info.truncated:
            self._m_truncated.inc()
        self._log(
            f"stream {info.stream_id} finished: {info.records} records, "
            f"{info.bytes} bytes"
            + (" (truncated)" if info.truncated else "")
            + (f": {error}" if error else "")
        )
        fin = {
            "ok": not info.truncated,
            "stream_id": info.stream_id,
            "records": info.records,
            "truncated": info.truncated,
        }
        if error:
            fin["error"] = error
        try:
            writer.write(encode_json_frame(fin))
            await writer.drain()
            writer.close()
        except (ConnectionError, OSError):
            pass

    # -- http -------------------------------------------------------------

    @staticmethod
    def _http_response(status: str, body: bytes, content_type: str) -> bytes:
        head = (
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        return head.encode("ascii") + body

    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        import json

        try:
            request_line = await reader.readline()
            while True:  # drain headers; GET-only API, no bodies
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2 or parts[0] != "GET":
                writer.write(self._http_response(
                    "405 Method Not Allowed", b"GET only\n", "text/plain"))
                await writer.drain()
                writer.close()
                return
            url = urlsplit(parts[1])
            path = url.path
            query = parse_qs(url.query)
            self._m_http.labels(path=path).inc()
            if path == "/healthz":
                body = json.dumps({
                    "ok": True,
                    "draining": self._draining,
                    "shards": len(self.shards),
                    "shards_alive": [shard.alive for shard in self.shards],
                    "active_clients": self._active,
                    "uptime_seconds": (
                        time.time() - self.started_at if self.started_at else 0.0
                    ),
                }).encode("utf-8")
                writer.write(self._http_response("200 OK", body, "application/json"))
            elif path == "/rankings":
                top, table = self._read_query(query, tables=RANKINGS_TABLES)
                analysis, _ = await self.merged(
                    "analysis" if table == "nested" else "sites"
                )
                payload = rankings_payload(analysis, top=top, table=table)
                body = json.dumps(payload).encode("utf-8")
                writer.write(self._http_response("200 OK", body, "application/json"))
            elif path == "/summary":
                analysis, shard_counts = await self.merged("sites")
                body = json.dumps({
                    "objects": analysis.object_count,
                    "est_objects": analysis.est_object_count,
                    "total_bytes": analysis.total_bytes,
                    "est_total_bytes": analysis.est_total_bytes,
                    "total_drag": analysis.total_drag,
                    "est_total_drag": analysis.est_total_drag,
                    "effective_sample_rate": analysis.effective_sample_rate,
                    "end_time": analysis.end_time,
                    "sites": len(analysis.by_site),
                    "samples": sum(
                        info.samples for info in self.streams.values()
                    ),
                    "shards": [
                        {"shard": i, "records": count}
                        for i, count in enumerate(shard_counts)
                    ],
                    "active_clients": self._active,
                    "draining": self._draining,
                    "streams": [
                        info.to_dict()
                        for _, info in sorted(self.streams.items())
                    ],
                }).encode("utf-8")
                writer.write(self._http_response("200 OK", body, "application/json"))
            elif path == "/timeline":
                if not self.config.timeline_bin_bytes:
                    body = json.dumps({
                        "error": "timeline disabled (--timeline-bin-bytes 0)",
                    }).encode("utf-8")
                    writer.write(self._http_response(
                        "404 Not Found", body, "application/json"))
                else:
                    top, _ = self._read_query(query)
                    timeline, _ = await self.merged("timeline")
                    payload = timeline.payload(top=top, include_samples=False)
                    payload["samples"] = sorted(self._timeline_samples)
                    self._m_timeline_requests.inc()
                    self._m_timeline_bins.set(payload["bins"])
                    self._m_timeline_sites.set(payload["site_count"])
                    body = json.dumps(payload).encode("utf-8")
                    writer.write(self._http_response(
                        "200 OK", body, "application/json"))
            elif path == "/metrics":
                analysis, _ = await self.merged("sites")
                self._m_record_bytes.set(analysis.total_bytes)
                self._m_weighted_records.set(analysis.est_object_count)
                self._m_weighted_bytes.set(analysis.est_total_bytes)
                self._m_rate.set(analysis.effective_sample_rate)
                body = self.registry.exposition().encode("utf-8")
                writer.write(self._http_response(
                    "200 OK", body, "text/plain; version=0.0.4"))
            elif path == "/snapshot":
                payload = await self._loop.run_in_executor(
                    self._pool, self._snapshot_payload
                )
                body = json.dumps(payload).encode("utf-8")
                status = "200 OK" if "error" not in payload else "404 Not Found"
                writer.write(self._http_response(status, body, "application/json"))
            else:
                writer.write(self._http_response(
                    "404 Not Found", b"unknown path\n", "text/plain"))
            await writer.drain()
            writer.close()
        except (BadRequest, ShardUnavailable) as exc:
            body = json.dumps({"error": str(exc)}).encode("utf-8")
            try:
                writer.write(self._http_response(
                    exc.status, body, "application/json"))
                await writer.drain()
                writer.close()
            except (ConnectionError, OSError):
                pass
        except (ValueError, ConnectionError, OSError):
            try:
                writer.close()
            except OSError:
                pass

    def _read_query(self, query: dict, tables=()) -> Tuple[Optional[int], Optional[str]]:
        """``(top, table)`` from a read's query string. ``top`` is a
        count of sites, or None for all (``0`` or ``all``); ``table``
        is read only when ``tables`` names the choices. Raises
        :class:`BadRequest` for anything else."""
        raw_top = query.get("top", [str(self.config.top_k)])[0]
        top = None
        if raw_top not in ("0", "all"):
            try:
                top = int(raw_top)
            except ValueError:
                pass
            if top is None or top < 0:
                raise BadRequest(
                    f"top must be a non-negative integer or 'all', got {raw_top!r}"
                )
        table = None
        if tables:
            table = query.get("table", [tables[0]])[0]
            if table not in tables:
                raise BadRequest(
                    f"table must be one of {', '.join(tables)}, got {table!r}"
                )
        return top, table

    def _snapshot_payload(self) -> dict:
        """The /snapshot body: the configured snapshot file's
        dominator-tree summary, cached by file size so repeated polls
        only re-parse after a profiler appends new captures."""
        import os

        path = self.config.snapshot_file
        if not path:
            return {"error": "no snapshot file configured (--snapshot-file)"}
        try:
            size = os.path.getsize(path)
        except OSError as exc:
            return {"error": f"snapshot file unreadable: {exc}"}
        cached = self._snapshot_cache
        if cached is not None and cached[0] == size:
            return cached[1]
        from repro.snapshot import SnapshotError, read_snapshots, snapshot_summary

        try:
            loaded = read_snapshots(path, strict=False)
        except SnapshotError as exc:
            return {"error": f"snapshot file unreadable: {exc}"}
        payload = dict(snapshot_summary(loaded), file=path)
        self._snapshot_cache = (size, payload)
        return payload

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        cfg = self.config
        self._ingest_server = await asyncio.start_server(
            self._handle_ingest, cfg.host, cfg.port
        )
        self.ingest_addr = self._ingest_server.sockets[0].getsockname()[:2]
        self._http_server = await asyncio.start_server(
            self._handle_http, cfg.host, cfg.http_port
        )
        self.http_addr = self._http_server.sockets[0].getsockname()[:2]
        self.started_at = time.time()
        flavour = "inline" if isinstance(self.shards[0], InlineShard) else "process"
        self._log(
            f"ingest on {self.ingest_addr[0]}:{self.ingest_addr[1]}, "
            f"http on {self.http_addr[0]}:{self.http_addr[1]}, "
            f"{len(self.shards)} {flavour} shard(s)"
        )

    def request_stop(self) -> None:
        """Signal-safe stop trigger (callable from handlers/threads)."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    async def shutdown(self) -> None:
        """Graceful drain: close the door, finish in-flight streams,
        final-merge, stop workers."""
        self._draining = True
        self._log("draining: no longer accepting streams")
        if self._ingest_server is not None:
            self._ingest_server.close()
            await self._ingest_server.wait_closed()
        deadline = time.monotonic() + self.config.drain_timeout
        while self._active > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        finals = await asyncio.gather(
            *(self._call(shard, "stop") for shard in self.shards)
        )
        self.final_analysis = merge_snapshots(a for a, _ in finals)
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
        self._pool.shutdown(wait=False)
        self._log(
            f"stopped: {int(self._m_records.value)} records from "
            f"{int(self._m_streams.value)} stream(s), "
            f"{len(self.final_analysis.by_site)} sites, "
            f"total drag {self.final_analysis.total_drag}"
        )

    async def serve(self) -> None:
        """start(), wait for request_stop(), shutdown()."""
        await self.start()
        await self._stop_event.wait()
        await self.shutdown()

    def run(self, install_signal_handlers: bool = True) -> int:
        """Blocking CLI entry point."""
        import signal

        async def main() -> None:
            await self.start()
            if install_signal_handlers:
                loop = asyncio.get_running_loop()
                for sig in (signal.SIGTERM, signal.SIGINT):
                    try:
                        loop.add_signal_handler(sig, self.request_stop)
                    except (NotImplementedError, RuntimeError):
                        pass
            await self._stop_event.wait()
            await self.shutdown()

        try:
            asyncio.run(main())
        except KeyboardInterrupt:
            pass
        return 0


class ServerHandle:
    """A server running on a daemon thread — the harness tests and the
    throughput bench drive the real socket path through this."""

    def __init__(self, server: DragServer, thread: threading.Thread) -> None:
        self.server = server
        self.thread = thread

    @property
    def ingest_addr(self) -> Tuple[str, int]:
        return self.server.ingest_addr

    @property
    def http_addr(self) -> Tuple[str, int]:
        return self.server.http_addr

    def stop(self, timeout: float = 30.0):
        self.server.request_stop()
        self.thread.join(timeout=timeout)
        if self.thread.is_alive():
            raise RuntimeError("serve daemon did not stop in time")
        return self.server.final_analysis


def start_server_thread(
    config: Optional[ServeConfig] = None,
    registry: Optional[MetricsRegistry] = None,
    startup_timeout: float = 30.0,
) -> ServerHandle:
    """Boot a :class:`DragServer` on a background thread; returns once
    both listeners are bound (ports resolved, even when 0 was asked)."""
    server = DragServer(config=config, registry=registry)
    ready = threading.Event()
    failure: List[BaseException] = []

    async def main() -> None:
        try:
            await server.start()
        except BaseException as exc:  # bind failures must not hang the caller
            failure.append(exc)
            ready.set()
            raise
        ready.set()
        await server._stop_event.wait()
        await server.shutdown()

    def body() -> None:
        try:
            asyncio.run(main())
        except BaseException:
            ready.set()

    thread = threading.Thread(target=body, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout=startup_timeout):
        raise RuntimeError("serve daemon did not start in time")
    if failure:
        raise failure[0]
    return ServerHandle(server, thread)
