"""Merge-equals-batch: the property that makes sharded serving honest.

The daemon's answer is ``merge(shard snapshots)``; the offline answer
is batch :class:`DragAnalysis` over the concatenated records. The
property test shards every benchmark's record stream K ways for
K in {1, 2, 4, 8} — both as the daemon routes, consecutive batches
dealt to the shards in turn, and by a seeded uniformly random
assignment — and requires the *full* rankings payloads (site, nested,
and never-used tables) to be equal.
"""

import pytest

from repro.core.analyzer import DragAnalysis
from repro.serve.merge import (
    merge_snapshots,
    prove_merge_equals_batch,
    rankings_payload,
    render_rankings_text,
)
from repro.stream.aggregate import StreamingDragAnalysis
from tests.core.test_analyzer import make_record
from tests.serve.conftest import BENCHMARK_NAMES


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_merge_equals_batch_for_every_benchmark(all_profiles, name):
    records = all_profiles[name].records
    # timelines=True extends the claim to the full /timeline payload:
    # every bin of every series, site strip, and histogram bucket.
    proof = prove_merge_equals_batch(
        records,
        shard_counts=(1, 2, 4, 8),
        timelines=True,
        end_time=all_profiles[name].end_time,
    )
    assert proof["records"] == len(records)
    # dealt-batch split + random split, for each of the four K values
    assert proof["splits_checked"] == 8
    assert proof["sites"] > 0
    assert proof["timeline_bins"] > 0


def test_merge_detects_inequality():
    """The proof is falsifiable: perturbing one record breaks it."""
    records = [make_record(handle=i, last_use=0) for i in range(8)]
    tampered = list(records)
    tampered[3] = make_record(handle=3, last_use=900)
    merged = merge_snapshots([StreamingDragAnalysis().consume(tampered)])
    batch = DragAnalysis(records)
    assert rankings_payload(merged) != rankings_payload(batch)


def test_rankings_payload_top_k_truncates():
    records = [
        make_record(handle=i, site_label=f"Site.m:{i}", last_use=500)
        for i in range(10)
    ]
    analysis = DragAnalysis(records)
    payload = rankings_payload(analysis, top=3)
    assert len(payload["sites"]) == 3
    assert [entry["rank"] for entry in payload["sites"]] == [1, 2, 3]
    full = rankings_payload(analysis, top=None)
    assert len(full["sites"]) == 10
    # top-k is a prefix of the full ranking
    assert full["sites"][:3] == payload["sites"]


def test_rankings_payload_tables():
    records = [make_record(handle=1, last_use=0)]
    analysis = DragAnalysis(records)
    assert rankings_payload(analysis, table="site")["table"] == "site"
    assert rankings_payload(analysis, table="nested")["table"] == "nested"
    never = rankings_payload(analysis, table="never_used")
    assert never["table"] == "never_used"
    # last_use=0 means the object was never used: it must show up here
    assert never["sites"]
    with pytest.raises(ValueError):
        rankings_payload(analysis, table="bogus")


def test_rankings_payload_drag_share_sums_to_one():
    records = [
        make_record(handle=i, site_label=f"S.m:{i % 3}", last_use=0)
        for i in range(30)
    ]
    payload = rankings_payload(DragAnalysis(records))
    assert sum(e["drag_share"] for e in payload["sites"]) == pytest.approx(1.0)


def test_merge_snapshots_of_nothing_is_empty():
    merged = merge_snapshots([])
    assert merged.object_count == 0
    assert merged.total_drag == 0
    assert rankings_payload(merged)["sites"] == []


def test_render_rankings_text_mentions_sites():
    records = [make_record(handle=1, site_label="Hot.alloc:7", last_use=0)]
    payload = rankings_payload(DragAnalysis(records))
    text = render_rankings_text(payload, summary={"streams": [], "active_clients": 0})
    assert "Hot.alloc:7" in text
    assert "Drag report" in text
