"""Drag profiling as a service.

The ``repro serve`` daemon turns the paper's offline two-phase profiler
into an always-on aggregation service: many concurrent profiled runs
stream their v2 object logs over TCP, frames fan out by allocation-site
hash to shard workers each running an incremental
:class:`~repro.stream.aggregate.StreamingDragAnalysis`, shards merge
associatively on demand, and live per-site drag rankings plus
Prometheus metrics are one HTTP GET away. Layout:

* :mod:`repro.serve.protocol` — handshake + wire framing;
* :mod:`repro.serve.shard` — site-hash partitioner and shard workers;
* :mod:`repro.serve.merge` — associative merge and the rankings
  payload, plus the merge-equals-batch proof;
* :mod:`repro.serve.server` — the asyncio daemon;
* :mod:`repro.serve.client` — ``ServeSink`` (live profile streaming),
  log replay, and HTTP fetch helpers.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.serve.client": (
        "ServeSink", "fetch_json", "fetch_metrics_text", "fetch_rankings",
        "replay_log",
    ),
    "repro.serve.merge": (
        "merge_snapshots", "prove_merge_equals_batch", "rankings_payload",
        "render_rankings_text",
    ),
    "repro.serve.protocol": ("DEFAULT_PORT", "parse_hostport"),
    "repro.serve.server": (
        "DragServer", "ServeConfig", "ServerHandle", "start_server_thread",
    ),
    "repro.serve.shard": (
        "InlineShard", "ProcessShard", "make_shards", "partition_records",
        "site_shard",
    ),
})

__all__ = [
    "ServeSink",
    "replay_log",
    "fetch_json",
    "fetch_rankings",
    "fetch_metrics_text",
    "merge_snapshots",
    "rankings_payload",
    "render_rankings_text",
    "prove_merge_equals_batch",
    "DEFAULT_PORT",
    "parse_hostport",
    "DragServer",
    "ServeConfig",
    "ServerHandle",
    "start_server_thread",
    "InlineShard",
    "ProcessShard",
    "make_shards",
    "partition_records",
    "site_shard",
]
