"""Shard workers: where the daemon's aggregation actually happens.

The accept loop never reads a RECORD payload. It deals each batch of
raw record frames (all the records one socket read framed) to the next
shard in turn; the shard worker owns the one full decode and folds each
record once into its one state: a
:class:`~repro.obs.timeline.TimelineBuilder` when the timeline is on,
which is its :class:`~repro.stream.aggregate.StreamingDragAnalysis`
plus bins, and a bare analysis otherwise. A snapshot returns only what
an endpoint serves: the builder for ``/timeline``, its analysis alone
for ``/rankings?table=nested`` and the drain, and for every other read
the analysis without its nested partition. Any site can therefore
live in every shard, and correctness never depends on the partition:
per-site sums are associative, so *any* assignment of records to
shards merges to the batch answer (:mod:`repro.serve.merge`).

String-table frames are broadcast to every shard (record payloads
reference string ids, and ids are per-stream), keyed by stream id so
concurrent clients cannot alias each other's tables. Each table has
the codec's decode cache beside it, dropped with it at end of stream.

Since the accept loop does not look inside a RECORD payload, the shard
is the one place a malformed payload is found. The shard folds every
payload that decodes, counts the ones that do not per stream, and
:meth:`end_stream` returns that count so the accept loop ends the
stream as truncated. Both flavours behave the same way.

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

import copy
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ProfileError
from repro.stream.aggregate import StreamingDragAnalysis
from repro.stream.codec import _decode_record


#: What :meth:`_ShardState.snapshot` can return: the whole drag analysis
#: behind /rankings?table=nested, its site-only view behind the other
#: /rankings tables, /summary and /metrics, or the heap timeline behind
#: /timeline.
SNAPSHOT_PARTS = ("analysis", "sites", "timeline")


class _ShardState:
    """The aggregation state shared by both shard flavours. Records
    fold once into :attr:`fold`: a heap timeline (a drag analysis plus
    its bins) unless the timeline is off, a bare drag analysis
    otherwise. :attr:`analysis`, :attr:`sites` and :attr:`timeline`
    name the parts a snapshot can return."""

    def __init__(self, timeline_bin_bytes: Optional[int] = None) -> None:
        if timeline_bin_bytes:
            from repro.obs.timeline import TimelineBuilder

            self.timeline = self.fold = TimelineBuilder(bin_bytes=timeline_bin_bytes)
            self.analysis = self.timeline.analysis
        else:
            self.timeline = None
            self.analysis = self.fold = StreamingDragAnalysis()
        self.tables: Dict[int, List[str]] = {}
        # Per open stream: the decode cache bound to its table.
        self.tails: Dict[int, dict] = {}
        self.records_seen = 0
        # Per open stream: payloads that did not decode.
        self.corrupt: Dict[int, int] = {}

    @property
    def sites(self) -> StreamingDragAnalysis:
        """The analysis without its nested partition: a shallow view
        sharing the site groups, so it costs nothing to make and
        pickles only the ``by_site`` table."""
        view = copy.copy(self.analysis)
        view.by_nested = None
        return view

    def add_strings(self, stream_id: int, strings: Sequence[str]) -> None:
        self.tables.setdefault(stream_id, []).extend(strings)

    def add_records(self, stream_id: int, payloads: Sequence[bytes]) -> None:
        """Fold every payload of the batch that decodes; count the rest
        against the stream."""
        table = self.tables.setdefault(stream_id, [])
        tails = self.tails.setdefault(stream_id, {})
        records = []
        for payload in payloads:
            try:
                records.append(_decode_record(payload, table, tails))
            except ProfileError:
                self.corrupt[stream_id] = self.corrupt.get(stream_id, 0) + 1
        self.fold.consume(records)
        self.records_seen += len(records)

    def end_stream(self, stream_id: int, end_time: Optional[int]) -> int:
        """Close the stream's table and decode cache; returns how many
        of its payloads did not decode."""
        self.tables.pop(stream_id, None)
        self.tails.pop(stream_id, None)
        self.fold.note_end(end_time)
        return self.corrupt.pop(stream_id, 0)

    def snapshot(self, part: str = "analysis") -> Tuple[object, int]:
        """``(state, records folded)``, where ``part`` (one of
        :data:`SNAPSHOT_PARTS`) names the state an endpoint serves, so
        a read pickles and merges nothing it does not use: the
        analysis without the bins, with or without its nested
        partition, or the whole timeline (None when the timeline is
        off)."""
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

    alive = True

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
