"""Streaming/batch equivalence: StreamingDragAnalysis must reproduce
DragAnalysis exactly — the property the whole pipeline rests on —
with the nested partition and without it (``nested=False``)."""

import pytest

from repro.core.analyzer import DragAnalysis
from repro.stream.aggregate import StreamingDragAnalysis
from tests.core.test_analyzer import make_record


def assert_equivalent(batch: DragAnalysis, stream: StreamingDragAnalysis):
    """Bit-for-bit agreement on every aggregate both sides expose."""
    assert stream.object_count == batch.object_count
    assert stream.total_bytes == batch.total_bytes
    assert stream.total_drag == batch.total_drag
    assert (stream.by_nested is None) == (batch.by_nested is None)
    for table in ("by_site", "by_nested"):
        batch_table = getattr(batch, table)
        stream_table = getattr(stream, table)
        if batch_table is None:
            continue
        assert set(stream_table) == set(batch_table), table
        for key, group in batch_table.items():
            stats = stream_table[key]
            assert stats.count == group.count, (table, key)
            assert stats.total_bytes == group.total_bytes, (table, key)
            assert stats.total_drag == group.total_drag, (table, key)
            assert stats.total_in_use == group.total_in_use, (table, key)
            assert stats.never_used_count == group.never_used_count, (table, key)
            assert stats.never_used_drag == group.never_used_drag, (table, key)
            assert stats.type_names == group.type_names, (table, key)
    # sorted views use identical comparators, so identical order
    assert [g.key for g in stream.sorted_sites()] == [
        g.key for g in batch.sorted_sites()
    ]
    if batch.by_nested is not None:
        assert [g.key for g in stream.sorted_nested()] == [
            g.key for g in batch.sorted_nested()
        ]
    assert [g.key for g in stream.never_used_sites()] == [
        g.key for g in batch.never_used_sites()
    ]


@pytest.mark.parametrize("name", ["db", "euler"])
def test_equivalence_on_benchmark_profiles(bench_profiles, name):
    records = bench_profiles[name].records
    assert len(records) > 100  # a real stream, not a toy
    batch = DragAnalysis(records)
    stream = StreamingDragAnalysis().consume(records)
    assert_equivalent(batch, stream)


@pytest.mark.parametrize("name", ["db", "euler"])
def test_site_only_equivalence_on_benchmark_profiles(bench_profiles, name):
    """The site-only folds agree, and leaving the nested partition out
    changes nothing else."""
    records = bench_profiles[name].records
    batch = DragAnalysis(records, nested=False)
    stream = StreamingDragAnalysis(nested=False).consume(records)
    assert stream.by_nested is None and batch.by_nested is None
    assert_equivalent(batch, stream)
    full = DragAnalysis(records)
    full.by_nested = None  # compare everything else
    assert_equivalent(full, stream)
    with pytest.raises(ValueError, match="nested partition"):
        stream.sorted_nested()


@pytest.mark.parametrize("name", ["db", "euler"])
def test_equivalence_excluding_library_sites(bench_profiles, name):
    records = bench_profiles[name].records
    batch = DragAnalysis(records, include_library_sites=False)
    stream = StreamingDragAnalysis(include_library_sites=False).consume(records)
    assert_equivalent(batch, stream)


def test_excluded_records_filtered_like_batch():
    records = [
        make_record(handle=1, excluded=True),
        make_record(handle=2),
    ]
    batch = DragAnalysis(records)
    stream = StreamingDragAnalysis().consume(records)
    assert_equivalent(batch, stream)
    assert stream.object_count == 1


def test_nested_fallback_key_matches_batch():
    record = make_record(handle=1)
    record.nested_alloc = ()  # empty chain falls back to (site_label,)
    batch = DragAnalysis([record])
    stream = StreamingDragAnalysis().consume([record])
    assert_equivalent(batch, stream)
    assert (record.site_label,) in stream.by_nested


def test_drag_share_and_site_lookup():
    records = [
        make_record(handle=1, site_label="A.m:1", size=10, collected=1000),
        make_record(handle=2, site_label="B.n:2", size=10, collected=2000),
    ]
    stream = StreamingDragAnalysis().consume(records)
    site = stream.site("A.m:1")
    assert site is not None and site.count == 1
    assert stream.site("missing") is None
    assert abs(sum(stream.drag_share(s) for s in stream.by_site.values()) - 1.0) < 1e-9


def test_merge_equals_single_stream(bench_profiles):
    """Sharded aggregation: merging per-shard analyses equals analyzing
    the concatenated stream — the multi-process merge invariant."""
    records = bench_profiles["db"].records
    mid = len(records) // 2
    left = StreamingDragAnalysis().consume(records[:mid])
    right = StreamingDragAnalysis().consume(records[mid:])
    merged = left.merge(right)
    whole = StreamingDragAnalysis().consume(records)
    assert merged.total_drag == whole.total_drag
    assert merged.object_count == whole.object_count
    assert set(merged.by_site) == set(whole.by_site)
    for key, stats in whole.by_site.items():
        other = merged.by_site[key]
        assert (other.count, other.total_drag, other.never_used_count) == (
            stats.count,
            stats.total_drag,
            stats.never_used_count,
        )
    assert [g.key for g in merged.sorted_sites()] == [
        g.key for g in whole.sorted_sites()
    ]


def test_site_only_merge_equals_batch_rankings(bench_profiles):
    """Site-only shards merge into the batch site and never-used
    rankings; a site-only fold does not merge with a nested one."""
    from repro.serve.merge import rankings_payload

    records = bench_profiles["db"].records
    third = len(records) // 3
    shards = [records[:third], records[third:2 * third], records[2 * third:]]
    merged = StreamingDragAnalysis(nested=False)
    for shard in shards:
        merged.merge(StreamingDragAnalysis(nested=False).consume(shard))
    batch = DragAnalysis(records)
    for table in ("site", "never_used"):
        assert rankings_payload(merged, table=table) == rankings_payload(
            batch, table=table
        ), table
    with pytest.raises(ValueError, match="nested partition"):
        StreamingDragAnalysis().merge(StreamingDragAnalysis(nested=False))
    with pytest.raises(ValueError, match="nested partition"):
        StreamingDragAnalysis(nested=False).merge(StreamingDragAnalysis())


def test_merge_rejects_mismatched_keys():
    from repro.stream.aggregate import SiteStats

    a, b = SiteStats("x"), SiteStats("y")
    with pytest.raises(ValueError):
        a.merge(b)
