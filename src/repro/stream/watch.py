"""``repro watch``: tail a growing profile log and summarize it live.

v2 logs are tailed frame-by-frame with
:class:`~repro.stream.codec.V2TailReader`. A v1 JSONL log, which only
older versions wrote, is finished and is read once. Each poll folds
the new records into a site-only
:class:`~repro.stream.aggregate.StreamingDragAnalysis` — memory stays
O(sites) no matter how large the log grows — and refreshes a top-K
drag summary, optionally flushing a machine-readable JSON snapshot.

``repro watch --follow HOST:PORT`` (:func:`follow_server`) is the same
loop pointed at a serve daemon instead of a file: each poll GETs
/summary and /rankings and renders the merged-across-all-clients view,
feeding the identical ``repro_live_*`` gauge names so dashboards don't
care whether they scrape a file tail or the service.
"""

from __future__ import annotations

import sys
import time as _time
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.errors import ProfileError
from repro.core.logfile import read_log
from repro.core.integrals import MB
from repro.stream.aggregate import StreamingDragAnalysis
from repro.stream.codec import MAGIC, V2TailReader
from repro.stream.live import snapshot, update_registry, write_metrics_json


class _V1Log:
    """A v1 log. Nothing writes v1 any more, so the file is finished:
    the first poll reads it whole, up to any cut-off final record."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.finalizer_errors: Optional[int] = None

    def poll(self) -> List[Tuple[str, object]]:
        loaded = read_log(self.path, strict=False)
        self.finalizer_errors = loaded.finalizer_errors
        events: List[Tuple[str, object]] = [("record", r) for r in loaded.records]
        events.append(("end", loaded.end_time))
        return events


def _open_tail(path: Path):
    """The reader for ``path``, or None while the file is still too
    short to tell its format: a v2 writer buffers even its magic, so
    the log of an in-flight run can be empty."""
    with open(path, "rb") as f:
        head = f.read(len(MAGIC))
    if len(head) < len(MAGIC):
        return None
    if head == MAGIC:
        return V2TailReader(path)
    return _V1Log(path)


def _mb2(bytes2: int) -> float:
    return bytes2 / (MB * MB)


def render_summary(
    path,
    analysis: StreamingDragAnalysis,
    last_sample,
    sample_count: int,
    top: int,
    finished: bool,
    finalizer_errors: Optional[int] = None,
) -> str:
    """One refresh of the watch display."""
    state = "finished" if finished else "live"
    lines = [f"=== repro watch {path} ({state}) ==="]
    lines.append(
        f"records {analysis.object_count}"
        f"   drag-so-far {_mb2(analysis.total_drag):.4f} MB^2"
        f"   logged bytes {analysis.total_bytes}"
    )
    if analysis.sampled:
        lines.append(
            f"byte-sampled: effective rate {analysis.effective_sample_rate:.6f}"
            f"   est records {analysis.est_object_count:.1f}"
            f"   est drag {_mb2(analysis.est_total_drag):.4f} MB^2"
        )
    if finalizer_errors:
        lines.append(f"finalizer errors: {finalizer_errors} (swallowed)")
    if last_sample is not None:
        lines.append(
            f"heap @ t={last_sample.time}: {last_sample.reachable_bytes} B reachable"
            f" in {last_sample.object_count} objects"
            f"   deep-GC samples {sample_count}"
        )
    groups = analysis.sorted_sites(top)
    if groups:
        lines.append(f"top {len(groups)} sites by drag:")
        for rank, stats in enumerate(groups, start=1):
            lines.append(
                f"  #{rank} {stats.key}: drag {_mb2(stats.total_drag):.4f} MB^2"
                f"  objects {stats.count}  never-used {stats.never_used_count}"
            )
    else:
        lines.append("(no records yet)")
    return "\n".join(lines)


def watch_log(
    path: Union[str, Path],
    once: bool = False,
    poll_interval: float = 1.0,
    top: int = 10,
    metrics_json: Optional[str] = None,
    out=None,
    max_polls: Optional[int] = None,
    registry=None,
    metrics_out: Optional[str] = None,
) -> StreamingDragAnalysis:
    """Tail ``path`` until the log ends (or forever), printing a
    refreshed summary after each poll that saw new data.

    ``once`` reads what is there now, prints a single summary, and
    returns. ``max_polls`` bounds the loop for tests. ``registry`` (a
    :class:`repro.obs.MetricsRegistry`) receives the same ``repro_live_*``
    gauges :class:`~repro.stream.live.MetricsSink` maintains;
    ``metrics_out`` additionally flushes its Prometheus exposition to a
    file after each refresh. Returns the accumulated analysis.
    """
    if registry is None and metrics_out is not None:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    path = Path(path)
    out = out if out is not None else sys.stdout
    waited = 0.0
    while not path.exists():
        if once:
            raise ProfileError(f"{path}: no such log file")
        _time.sleep(poll_interval)
        waited += poll_interval
        if max_polls is not None and waited / poll_interval >= max_polls:
            raise ProfileError(f"{path}: log never appeared")
    tail = None
    analysis = StreamingDragAnalysis(nested=False)  # the summary ranks sites only
    last_sample = None
    sample_count = 0
    finished = False
    polls = 0
    while True:
        polls += 1
        if tail is None:
            tail = _open_tail(path)
        events = tail.poll() if tail is not None else []
        for kind, value in events:
            if kind == "record":
                analysis.add(value)
            elif kind == "sample":
                last_sample = value
                sample_count += 1
            elif kind == "end":
                analysis.end_time = value
                finished = True
        if events or once or polls == 1:
            finalizer_errors = getattr(tail, "finalizer_errors", None)
            print(
                render_summary(
                    path,
                    analysis,
                    last_sample,
                    sample_count,
                    top,
                    finished,
                    finalizer_errors=finalizer_errors,
                ),
                file=out,
            )
            if metrics_json or registry is not None:
                metrics = snapshot(
                    analysis,
                    time=(
                        analysis.end_time
                        if finished and analysis.end_time is not None
                        else (last_sample.time if last_sample else 0)
                    ),
                    reachable_bytes=last_sample.reachable_bytes if last_sample else 0,
                    reachable_objects=last_sample.object_count if last_sample else 0,
                    sample_count=sample_count,
                    top_k=top,
                    finished=finished,
                    finalizer_errors=finalizer_errors or 0,
                )
                if metrics_json:
                    write_metrics_json(metrics, metrics_json)
                if registry is not None:
                    update_registry(registry, metrics)
                    if metrics_out:
                        registry.write_exposition(metrics_out)
        if once or finished:
            return analysis
        if max_polls is not None and polls >= max_polls:
            return analysis
        _time.sleep(poll_interval)


def render_follow_summary(
    hostport: str,
    summary: dict,
    rankings: dict,
    top: int,
    timeline: Optional[dict] = None,
) -> str:
    """One refresh of the ``--follow`` display (server-side state).

    When the daemon serves ``/timeline``, its payload adds a live drag
    sparkline + effective-sample-rate gauge row, and the banner states
    the bin width so readers know the x-resolution at a glance."""
    draining = summary.get("draining")
    active = summary.get("active_clients", 0)
    state = "draining" if draining else (f"{active} live client(s)" if active else "idle")
    if timeline and timeline.get("bin_bytes"):
        from repro.obs.timeline import format_bytes

        state += f"; timeline bin {format_bytes(timeline['bin_bytes'])}"
    lines = [f"=== repro watch {hostport} ({state}) ==="]
    streams = summary.get("streams", [])
    truncated = sum(1 for s in streams if s.get("truncated"))
    lines.append(
        f"records {summary['objects']}"
        f"   drag-so-far {_mb2(summary['total_drag']):.4f} MB^2"
        f"   logged bytes {summary['total_bytes']}"
        f"   streams {len(streams)}"
        + (f" ({truncated} truncated)" if truncated else "")
    )
    rate = summary.get("effective_sample_rate", 1.0)
    if rate != 1.0:
        lines.append(
            f"byte-sampled: effective rate {rate:.6f}"
            f"   est records {summary.get('est_objects', 0):.1f}"
            f"   est drag {_mb2(summary.get('est_total_drag', 0)):.4f} MB^2"
        )
    shard_counts = [s["records"] for s in summary.get("shards", [])]
    if shard_counts:
        lines.append(
            f"shards {len(shard_counts)}: records/shard "
            + "/".join(str(c) for c in shard_counts)
        )
    if timeline and timeline.get("bins"):
        from repro.obs.timeline import payload_series, sparkline

        bin_bytes = timeline["bin_bytes"]
        drag = [v / bin_bytes for v in payload_series(timeline, "drag")]
        lines.append(
            f"drag {sparkline(drag, width=min(40, max(1, len(drag))))}"
            f"   rate {timeline.get('effective_sample_rate', 1.0):.6f}"
            f"   bins {timeline['bins']}"
        )
    sites = rankings.get("sites", [])
    if sites:
        lines.append(f"top {len(sites)} sites by drag:")
        for entry in sites:
            lines.append(
                f"  #{entry['rank']} {entry['site']}: "
                f"drag {_mb2(entry.get('est_drag', entry['drag'])):.4f} MB^2"
                f"  objects {entry['objects']}"
                f"  never-used {entry['never_used']}"
            )
    else:
        lines.append("(no records yet)")
    return "\n".join(lines)


def follow_server(
    hostport: str,
    once: bool = False,
    poll_interval: float = 1.0,
    top: int = 10,
    metrics_json: Optional[str] = None,
    out=None,
    max_polls: Optional[int] = None,
    registry=None,
    metrics_out: Optional[str] = None,
) -> dict:
    """Poll a serve daemon's /summary + /rankings until it drains.

    The file-tail twin of :func:`watch_log`: same flags, same rendered
    shape, same ``repro_live_*`` gauges (via ``registry`` /
    ``metrics_out``). Returns the last /summary body. Ends on ``once``,
    ``max_polls``, server drain, or the daemon going away.
    """
    from repro.serve.client import fetch_json, fetch_rankings
    from repro.serve.protocol import parse_hostport
    from repro.stream.live import (
        LiveMetrics,
        top_site,
        update_registry,
        write_metrics_json,
    )

    if registry is None and metrics_out is not None:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    addr = parse_hostport(hostport)
    out = out if out is not None else sys.stdout
    polls = 0
    summary: dict = {}
    while True:
        polls += 1
        try:
            summary = fetch_json(addr, "/summary")
            rankings = fetch_rankings(addr, top=top)
        except OSError as exc:
            if summary:  # daemon went away mid-follow: report what we had
                print(f"(server {hostport} gone: {exc})", file=out)
                return summary
            raise ProfileError(f"cannot reach serve daemon at {hostport}: {exc}")
        try:
            # Tolerant: older daemons and --timeline-bin-bytes 0 both
            # 404 here; the follow display just omits the gauge row.
            timeline = fetch_json(addr, "/timeline?top=1")
        except (OSError, ValueError):
            timeline = None
        print(
            render_follow_summary(hostport, summary, rankings, top,
                                  timeline=timeline),
            file=out,
        )
        finished = bool(summary.get("draining")) or (
            bool(summary.get("streams")) and summary.get("active_clients", 0) == 0
        )
        if metrics_json or registry is not None:
            metrics = LiveMetrics(
                time=summary.get("end_time") or 0,
                reachable_bytes=0,  # a deep-GC-point notion; not served
                reachable_objects=0,
                records_seen=summary["objects"],
                total_drag=summary["total_drag"],
                total_bytes=summary["total_bytes"],
                sample_count=summary.get("samples", 0),
                top_sites=[
                    top_site(e["site"], e["drag"], e["objects"], e["bytes"],
                             e["never_used"])
                    for e in rankings.get("sites", [])
                ],
                finished=finished,
            )
            if metrics_json:
                write_metrics_json(metrics, metrics_json)
            if registry is not None:
                update_registry(registry, metrics)
                if metrics_out:
                    registry.write_exposition(metrics_out)
        if once or summary.get("draining"):
            return summary
        if max_polls is not None and polls >= max_polls:
            return summary
        _time.sleep(poll_interval)
