"""Shard workers: where the daemon's aggregation actually happens.

The accept loop never decodes a RECORD frame. It peeks the allocation
site label (:func:`repro.stream.codec.peek_site_label`), hashes it to a
shard index, and forwards the raw frame payload; the shard worker owns
the full decode and folds the record into its own incremental
:class:`~repro.stream.aggregate.StreamingDragAnalysis` and, when the
timeline is on, its own :class:`~repro.obs.timeline.TimelineBuilder`.
A snapshot returns only the one of the two an endpoint serves. Because
the partition key is the site label, every site's stats live wholly in one
shard, and the on-demand merge (:mod:`repro.serve.merge`) only has to
union disjoint-ish tables — but correctness never depends on the
partition: per-site sums are associative, so *any* assignment of
records to shards merges to the batch answer.

String-table frames are broadcast to every shard (record payloads
reference string ids, and ids are per-stream), keyed by stream id so
concurrent clients cannot alias each other's tables.

The accept loop peeks a RECORD payload only as far as its site label,
so a payload can still turn out malformed in the shard. The shard
folds every payload that decodes, counts the ones that do not per
stream, and :meth:`end_stream` returns that count so the accept loop
ends the stream as truncated. Both flavours behave the same way.

Two interchangeable shard flavours:

* :class:`InlineShard` — in-process, for tests, ``--inline`` serving,
  and the merge proof;
* :class:`ProcessShard` — a daemonized worker process fed over a
  :mod:`multiprocessing` pipe. Sends block when the pipe is full, which
  is the backpressure path: the accept loop awaits the send in an
  executor thread, stops reading that client's socket, and TCP flow
  control does the rest.
"""

from __future__ import annotations

import threading
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ProfileError
from repro.stream.aggregate import StreamingDragAnalysis
from repro.stream.codec import _decode_record


def site_shard(label: str, nshards: int) -> int:
    """Stable allocation-site partitioner.

    crc32 rather than ``hash()``: the mapping must agree across worker
    processes and across runs (PYTHONHASHSEED randomizes ``str.__hash__``).
    """
    return zlib.crc32(label.encode("utf-8")) % nshards


def partition_records(records: Sequence, nshards: int) -> List[List]:
    """Split decoded records by site hash — the proof-side mirror of the
    daemon's frame routing."""
    shards: List[List] = [[] for _ in range(nshards)]
    for record in records:
        shards[site_shard(record.site_label, nshards)].append(record)
    return shards


#: What :meth:`_ShardState.snapshot` can return: the drag analysis
#: behind /rankings and /summary, or the heap timeline behind /timeline.
SNAPSHOT_PARTS = ("analysis", "timeline")


class _ShardState:
    """The aggregation state shared by both shard flavours: a drag
    analysis and, unless the timeline is off, a heap timeline, side by
    side and fed the same decoded records."""

    def __init__(self, timeline_bin_bytes: Optional[int] = None) -> None:
        self.analysis = StreamingDragAnalysis()
        self.timeline = None
        if timeline_bin_bytes:
            from repro.obs.timeline import TimelineBuilder

            self.timeline = TimelineBuilder(bin_bytes=timeline_bin_bytes)
        self.tables: Dict[int, List[str]] = {}
        self.records_seen = 0
        # Per open stream: payloads that did not decode.
        self.corrupt: Dict[int, int] = {}

    def add_strings(self, stream_id: int, strings: Sequence[str]) -> None:
        self.tables.setdefault(stream_id, []).extend(strings)

    def add_records(self, stream_id: int, payloads: Sequence[bytes]) -> None:
        """Fold every payload of the batch that decodes; count the rest
        against the stream."""
        table = self.tables.setdefault(stream_id, [])
        records = []
        for payload in payloads:
            try:
                records.append(_decode_record(payload, table))
            except ProfileError:
                self.corrupt[stream_id] = self.corrupt.get(stream_id, 0) + 1
        if self.timeline is not None:
            # A log-level view: the timeline sees every record, before
            # the analysis's excluded/library filters.
            self.timeline.consume(records)
        self.analysis.consume(records)
        self.records_seen += len(records)

    def end_stream(self, stream_id: int, end_time: Optional[int]) -> int:
        """Close the stream's table; returns how many of its payloads
        did not decode."""
        self.tables.pop(stream_id, None)
        if end_time is not None:
            if self.analysis.end_time is None:
                self.analysis.end_time = end_time
            else:
                self.analysis.end_time = max(self.analysis.end_time, end_time)
            if self.timeline is not None:
                self.timeline.note_end(end_time)
        return self.corrupt.pop(stream_id, 0)

    def snapshot(self, part: str = "analysis") -> Tuple[object, int]:
        """``(state, records folded)``, where ``part`` (one of
        :data:`SNAPSHOT_PARTS`) names the state an endpoint serves, so
        a read pickles and merges nothing it does not use."""
        if part not in SNAPSHOT_PARTS:
            raise ValueError(f"unknown snapshot part {part!r}")
        return getattr(self, part), self.records_seen


def _shard_main(index: int, conn, timeline_bin_bytes: Optional[int] = None) -> None:
    """Worker process body: a plain command loop over the pipe."""
    state = _ShardState(timeline_bin_bytes=timeline_bin_bytes)
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            break
        cmd = msg[0]
        if cmd == "strings":
            state.add_strings(msg[1], msg[2])
        elif cmd == "records":
            state.add_records(msg[1], msg[2])
        elif cmd == "end_stream":
            conn.send(state.end_stream(msg[1], msg[2]))
        elif cmd == "snapshot":
            conn.send(state.snapshot(msg[1]))
        elif cmd == "stop":
            conn.send(state.snapshot())
            break
    conn.close()


class InlineShard:
    """In-process shard: the same interface, no pipe, no pickling."""

    def __init__(self, index: int, timeline_bin_bytes: Optional[int] = None) -> None:
        self.index = index
        self._state = _ShardState(timeline_bin_bytes=timeline_bin_bytes)

    def feed_strings(self, stream_id: int, strings: Sequence[str]) -> None:
        self._state.add_strings(stream_id, list(strings))

    def feed_records(self, stream_id: int, payloads: Sequence[bytes]) -> None:
        self._state.add_records(stream_id, payloads)

    def end_stream(self, stream_id: int, end_time: Optional[int] = None) -> int:
        return self._state.end_stream(stream_id, end_time)

    def snapshot(self, part: str = "analysis") -> Tuple[object, int]:
        return self._state.snapshot(part)

    def stop(self) -> Tuple[StreamingDragAnalysis, int]:
        return self._state.snapshot()


class ProcessShard:
    """One worker process, commanded over a pipe.

    All pipe traffic goes through one lock so concurrent feeder threads
    (one per active connection, via the server's executor) interleave at
    message granularity and a snapshot request cannot splice into the
    middle of a feed. ``feed_*`` block when the pipe buffer is full —
    that blocking *is* the backpressure contract.
    """

    def __init__(
        self,
        index: int,
        mp_context=None,
        timeline_bin_bytes: Optional[int] = None,
    ) -> None:
        import multiprocessing

        ctx = mp_context or multiprocessing.get_context()
        self.index = index
        self._conn, child = ctx.Pipe()
        self._lock = threading.Lock()
        self._proc = ctx.Process(
            target=_shard_main,
            args=(index, child, timeline_bin_bytes),
            name=f"repro-serve-shard-{index}",
            daemon=True,
        )
        self._proc.start()
        child.close()

    def feed_strings(self, stream_id: int, strings: Sequence[str]) -> None:
        with self._lock:
            self._conn.send(("strings", stream_id, list(strings)))

    def feed_records(self, stream_id: int, payloads: Sequence[bytes]) -> None:
        with self._lock:
            self._conn.send(("records", stream_id, list(payloads)))

    def end_stream(self, stream_id: int, end_time: Optional[int] = None) -> int:
        """Replies once the worker has folded everything sent before it,
        so the returned count of undecodable payloads is final."""
        with self._lock:
            self._conn.send(("end_stream", stream_id, end_time))
            return self._conn.recv()

    def snapshot(self, part: str = "analysis") -> Tuple[object, int]:
        with self._lock:
            self._conn.send(("snapshot", part))
            return self._conn.recv()

    def stop(self) -> Tuple[StreamingDragAnalysis, int]:
        """Final snapshot + worker shutdown; idempotent-ish (a second
        call returns empty state rather than hanging)."""
        with self._lock:
            if self._proc is None:
                return StreamingDragAnalysis(), 0
            try:
                self._conn.send(("stop",))
                final = self._conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                final = (StreamingDragAnalysis(), 0)
            self._conn.close()
            self._proc.join(timeout=10)
            if self._proc.is_alive():
                self._proc.terminate()
                self._proc.join(timeout=5)
            self._proc = None
            return final

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()


def make_shards(
    n: int,
    inline: bool = False,
    timeline_bin_bytes: Optional[int] = None,
) -> List:
    """N shards of the requested flavour (inline when n == 0 too)."""
    if inline or n <= 0:
        return [
            InlineShard(i, timeline_bin_bytes=timeline_bin_bytes)
            for i in range(max(1, n))
        ]
    return [ProcessShard(i, timeline_bin_bytes=timeline_bin_bytes) for i in range(n)]
