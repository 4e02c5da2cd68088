"""Associative shard merge and the rankings it serves.

The merge primitive is :meth:`StreamingDragAnalysis.merge` from PR 1 —
per-site sums are associative and commutative, so folding the shard
snapshots in any order equals a single-stream analysis of the
concatenated logs, which in turn is bit-identical to the batch
:class:`~repro.core.analyzer.DragAnalysis` (pinned by
``tests/stream/test_aggregate.py``). :func:`prove_merge_equals_batch`
is the executable form of that argument: it shards a record list K
ways (as the daemon deals batches, and at random), merges, and
requires the full (untruncated) rankings payload to be equal — not
approximately, ``==`` on the JSON-able structure — to the batch
analyzer's.

:func:`rankings_payload` is deliberately duck-typed over both analyzers
so the server (merged shards) and ``repro report`` (batch) serialize
through literally the same code path; "bit-identical rankings" then
means equality of these payloads.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence

from repro.stream.aggregate import StreamingDragAnalysis


def merge_snapshots(snapshots: Iterable, into=None):
    """Fold shard snapshots into ``into`` (inputs untouched): a fresh
    analysis by default, or an empty
    :class:`~repro.obs.timeline.TimelineBuilder` for timeline
    snapshots."""
    merged = StreamingDragAnalysis() if into is None else into
    for snapshot in snapshots:
        merged.merge(snapshot)
    return merged


def _key_json(key) -> object:
    """Partition keys JSON-ably: site labels stay strings, nested
    chains become lists."""
    if isinstance(key, str):
        return key
    return list(key)


#: The ``table`` choices of ``GET /rankings``, default first.
RANKINGS_TABLES = ("site", "nested", "never_used")


def rankings_payload(
    analysis, top: Optional[int] = None, table: str = "site"
) -> dict:
    """The /rankings response body, computed from either analyzer.

    ``table`` is ``"site"`` (plain allocation site), ``"nested"`` (call
    chain), or ``"never_used"`` (§2.2's sure-bet partition). ``top``
    of None means all groups — what the equivalence proof compares.
    """
    if table == "site":
        groups = analysis.sorted_sites(top)
    elif table == "nested":
        groups = analysis.sorted_nested(top)
    elif table == "never_used":
        groups = analysis.never_used_sites(top)
    else:
        raise ValueError(f"unknown rankings table {table!r}")
    sites = [
        {
            "rank": rank,
            "site": _key_json(group.key),
            "drag": group.total_drag,
            # Weight-corrected estimate; == "drag" (same int) for
            # full-rate streams, so pre-sampling payloads are unchanged
            # except for the added est_*/effective_sample_rate keys.
            "est_drag": group.est_drag,
            "drag_share": analysis.drag_share(group),
            "objects": group.count,
            "est_objects": group.est_count,
            "bytes": group.total_bytes,
            "est_bytes": group.est_bytes,
            "in_use": group.total_in_use,
            "never_used": group.never_used_count,
            "never_used_drag": group.never_used_drag,
            # Sorted, not insertion-ordered: arrival order differs per
            # shard, so only the set is associative under merge.
            "types": sorted(group.type_names),
        }
        for rank, group in enumerate(groups, start=1)
    ]
    return {
        "table": table,
        "objects": analysis.object_count,
        "est_objects": analysis.est_object_count,
        "total_bytes": analysis.total_bytes,
        "est_total_bytes": analysis.est_total_bytes,
        "total_drag": analysis.total_drag,
        "est_total_drag": analysis.est_total_drag,
        "effective_sample_rate": analysis.effective_sample_rate,
        "sites": sites,
    }


def render_rankings_text(rankings: dict, summary: Optional[dict] = None) -> str:
    """``repro report --serve``'s phase-2-style text over a /rankings
    body (plus /summary context when available)."""
    mb2 = float(1 << 20) ** 2
    lines = ["=== Drag report (from serve daemon) ==="]
    lines.append(
        f"objects logged: {rankings['objects']}"
        f"   total drag: {rankings['total_drag'] / mb2:.4f} MB^2"
    )
    rate = rankings.get("effective_sample_rate", 1.0)
    if rate != 1.0 or rankings.get("est_total_drag", 0) != rankings["total_drag"]:
        lines.append(
            f"byte-sampled: effective rate {rate:.6f}"
            f"   est objects: {rankings['est_objects']:.1f}"
            f"   est total drag: {rankings['est_total_drag'] / mb2:.4f} MB^2"
        )
    if summary:
        streams = summary.get("streams", [])
        truncated = sum(1 for s in streams if s.get("truncated"))
        lines.append(
            f"streams: {len(streams)}"
            f"   active: {summary.get('active_clients', 0)}"
            f"   shards: {len(summary.get('shards', []))}"
            + (f"   truncated: {truncated}" if truncated else "")
        )
    table = rankings.get("table", "site")
    label = {"site": "allocation sites", "nested": "nested allocation sites",
             "never_used": "never-used allocation sites"}[table]
    sites = rankings["sites"]
    lines.append("")
    lines.append(f"--- top {len(sites)} {label} by drag ---")
    for entry in sites:
        key = entry["site"]
        name = key if isinstance(key, str) else " <- ".join(key)
        lines.append(
            f"#{entry['rank']} {name}"
        )
        lines.append(
            f"    drag {entry.get('est_drag', entry['drag']) / mb2:.4f} MB^2"
            f" ({100.0 * entry['drag_share']:.1f}% of total)"
            f"   objects {entry['objects']}"
            f"   bytes {entry['bytes']}"
            f"   never-used {entry['never_used']}"
        )
        if entry["types"]:
            lines.append(f"    types: {', '.join(entry['types'])}")
    if not sites:
        lines.append("(no records ingested yet)")
    return "\n".join(lines)


def prove_merge_equals_batch(
    records: Sequence,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    seed: int = 0,
    timelines: bool = False,
    timeline_bin_bytes: Optional[int] = None,
    end_time: Optional[int] = None,
) -> dict:
    """Verify merge-equals-batch on ``records``; returns the proof.

    For every K in ``shard_counts`` the records are split K ways twice:
    as the daemon routes them, consecutive batches dealt to the shards
    in turn (about four batches a shard), and by a uniformly random
    assignment from a ``seed`` RNG, which is the stronger claim:
    associativity cannot lean on any shape of the partition. Each split
    is aggregated per-shard, merged, and the *full* rankings payloads
    (site, nested, and never-used tables) are required to equal the
    batch analyzer's. Raises AssertionError on the first mismatch.

    With ``timelines=True``, each shard also folds its records into a
    :class:`~repro.obs.timeline.TimelineBuilder` beside its analysis
    (as the serve shards do), and the merged untruncated ``/timeline``
    payload must equal a batch builder's over the same records — every
    bin of every series, site strip, and histogram bucket. ``end_time``
    pins the declared stream end on both sides, mirroring the END frame.
    """
    from repro.core.analyzer import DragAnalysis

    batch = DragAnalysis(records)
    expected = {
        table: rankings_payload(batch, table=table) for table in RANKINGS_TABLES
    }
    expected_timeline = None
    bin_bytes = None
    if timelines:
        from repro.obs.timeline import DEFAULT_BIN_BYTES, TimelineBuilder

        bin_bytes = timeline_bin_bytes or DEFAULT_BIN_BYTES
        batch_timeline = TimelineBuilder(bin_bytes=bin_bytes).consume(records)
        batch_timeline.note_end(end_time)
        expected_timeline = batch_timeline.payload(top=None, include_samples=False)
    rng = random.Random(seed)
    checked = 0
    for k in shard_counts:
        batch_size = max(1, -(-len(records) // (4 * k)))
        dealt: List[List] = [[] for _ in range(k)]
        for turn, start in enumerate(range(0, len(records), batch_size)):
            dealt[turn % k].extend(records[start:start + batch_size])
        random_split: List[List] = [[] for _ in range(k)]
        for record in records:
            random_split[rng.randrange(k)].append(record)
        for split in (dealt, random_split):
            merged = merge_snapshots(
                StreamingDragAnalysis().consume(shard) for shard in split
            )
            for table, want in expected.items():
                got = rankings_payload(merged, table=table)
                assert got == want, (
                    f"merge != batch for K={k} shards, table={table!r}"
                )
            if timelines:
                shard_timelines = []
                for shard in split:
                    timeline = TimelineBuilder(bin_bytes=bin_bytes).consume(shard)
                    timeline.note_end(end_time)
                    shard_timelines.append(timeline)
                merged_timeline = merge_snapshots(
                    shard_timelines, TimelineBuilder(bin_bytes=bin_bytes)
                )
                got_timeline = merged_timeline.payload(
                    top=None, include_samples=False
                )
                assert got_timeline == expected_timeline, (
                    f"timeline merge != batch for K={k} shards"
                )
            checked += 1
    proof = {
        "records": len(records),
        "shard_counts": list(shard_counts),
        "splits_checked": checked,
        "sites": len(expected["site"]["sites"]),
        "total_drag": expected["site"]["total_drag"],
    }
    if timelines:
        proof["timeline_bins"] = expected_timeline["bins"]
        proof["timeline_bin_bytes"] = bin_bytes
    return proof
