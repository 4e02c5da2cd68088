"""Byte-weighted sampling through the serve daemon.

Two layers of the serve path carry weights: client-side resampling in
``replay_log``, and the weighted shard merge behind /rankings and
/summary. The daemon itself never resamples: a stream is sampled where
it starts (``profile --sample-bytes`` or ``replay --sample-bytes``).
"""

import pytest

from repro.core.analyzer import DragAnalysis
from repro.core.sampler import ByteSampler
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import (
    fetch_json,
    fetch_metrics_text,
    fetch_rankings,
    replay_log,
)
from repro.serve.merge import prove_merge_equals_batch, rankings_payload
from repro.serve.server import ServeConfig, start_server_thread
from tests.serve.test_server import metric_value, write_v2_log


def start(registry=None, workers=2):
    return start_server_thread(
        ServeConfig(port=0, http_port=0, workers=workers, quiet=True),
        registry=registry,
    )


def sampled_records(profile, sample_bytes=400, seed=0):
    sampler = ByteSampler(sample_bytes, seed=seed)
    out = []
    for record in profile.records:
        weight = sampler.sample(record.size)
        if weight:
            out.append(record if weight == 1.0 else record.with_weight(weight))
    return out


def test_weighted_merge_equals_batch(all_profiles):
    """The merge-equals-batch proof holds verbatim on weighted
    records: weights ride inside the records, so shard aggregation
    and the batch analyzer see identical inputs."""
    for name in ("db", "euler"):
        records = sampled_records(all_profiles[name])
        assert any(r.weight != 1.0 for r in records)
        proof = prove_merge_equals_batch(records, shard_counts=(1, 2, 4, 8))
        assert proof["splits_checked"] > 0


def test_rankings_payload_carries_est_fields(all_profiles):
    records = sampled_records(all_profiles["db"])
    payload = rankings_payload(DragAnalysis(records), top=None)
    assert 0 < payload["effective_sample_rate"] < 1
    assert payload["est_total_drag"] > 0
    for entry in payload["sites"]:
        assert "est_drag" in entry and "est_objects" in entry
    # at full rate the est fields collapse to the observed ints
    full = rankings_payload(DragAnalysis(all_profiles["db"].records), top=None)
    assert full["effective_sample_rate"] == 1.0
    assert full["est_total_drag"] == full["total_drag"]
    for entry in full["sites"]:
        assert entry["est_drag"] == entry["drag"]


def test_client_side_resampling(all_profiles, tmp_path):
    """``replay_log(..., sample_bytes=N)`` thins before the socket; the
    daemon (no sampling configured) still reports weighted estimates
    because the weights arrive inside the records."""
    profile = all_profiles["euler"]
    log = write_v2_log(
        tmp_path / "euler.dlog2", profile.records, end_time=profile.end_time
    )
    handle = start()
    try:
        host, port = handle.ingest_addr
        ack = replay_log(log, host, port, sample_bytes=300, seed=1)
        assert ack["ok"]
        assert ack["sent"] < len(profile.records)
        summary = fetch_json(handle.http_addr, "/summary")
        assert summary["effective_sample_rate"] < 1
        full = DragAnalysis(profile.records)
        assert summary["est_total_bytes"] == pytest.approx(
            full.total_bytes, rel=0.15
        )
    finally:
        handle.stop()


def test_full_rate_serve_metrics_stay_exact(all_profiles, tmp_path):
    """Without sampling anywhere, the weighted counters equal the
    observed ones and the rate gauge is exactly 1 — the CI smoke greps
    for the literal ``1``."""
    profile = all_profiles["db"]
    log = write_v2_log(
        tmp_path / "db.dlog2", profile.records, end_time=profile.end_time
    )
    registry = MetricsRegistry()
    handle = start(registry=registry)
    try:
        host, port = handle.ingest_addr
        replay_log(log, host, port)
        text = fetch_metrics_text(handle.http_addr)
        assert metric_value(text, "repro_serve_effective_sample_rate") == 1.0
        assert "repro_serve_effective_sample_rate 1\n" in text
        assert metric_value(
            text, "repro_serve_weighted_records_total"
        ) == len(profile.records)
        assert metric_value(text, "repro_serve_weighted_bytes_total") == sum(
            r.size for r in profile.records
        )
        summary = fetch_json(handle.http_addr, "/summary")
        assert summary["effective_sample_rate"] == 1.0
        assert summary["est_total_drag"] == summary["total_drag"]
    finally:
        handle.stop()


def test_weight_metrics_equal_summary_after_sampled_and_full_replays(
    all_profiles, tmp_path
):
    """Four concurrent sampled replays and one full-rate replay: the
    four weight series on /metrics are the merged analysis's values,
    so they equal /summary's exactly, floats included."""
    import threading

    profile = all_profiles["db"]
    log = write_v2_log(
        tmp_path / "db.dlog2", profile.records, end_time=profile.end_time
    )
    handle = start()
    try:
        host, port = handle.ingest_addr
        acks = []

        def sampled(seed):
            acks.append(replay_log(log, host, port, sample_bytes=64, seed=seed))

        threads = [threading.Thread(target=sampled, args=(s,)) for s in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(acks) == 4 and all(ack["ok"] for ack in acks)
        assert replay_log(log, host, port)["ok"]
        text = fetch_metrics_text(handle.http_addr)
        summary = fetch_json(handle.http_addr, "/summary")
        assert summary["effective_sample_rate"] < 1
        for metric, key in (
            ("repro_serve_record_bytes_total", "total_bytes"),
            ("repro_serve_weighted_records_total", "est_objects"),
            ("repro_serve_weighted_bytes_total", "est_total_bytes"),
            ("repro_serve_effective_sample_rate", "effective_sample_rate"),
        ):
            assert metric_value(text, metric) == summary[key], metric
    finally:
        handle.stop()


def test_raw_replay_refuses_rate_and_sampling(tmp_path):
    """Raw replay sends the file's bytes verbatim; asking it to pace
    or resample is an error, raised before any connection."""
    log = write_v2_log(tmp_path / "one.dlog2", [])
    with pytest.raises(ValueError, match="mode='records'"):
        replay_log(log, "127.0.0.1", 9, mode="raw", sample_bytes=64)
    with pytest.raises(ValueError, match="mode='records'"):
        replay_log(log, "127.0.0.1", 9, mode="raw", rate=100.0)


def test_sampled_replay_matches_direct_aggregation(all_profiles, tmp_path):
    """Determinism end-to-end: replaying with a pinned seed produces
    exactly the rankings of aggregating the same resample locally."""
    profile = all_profiles["db"]
    log = write_v2_log(
        tmp_path / "db.dlog2", profile.records, end_time=profile.end_time
    )
    expected = rankings_payload(
        DragAnalysis(sampled_records(profile, sample_bytes=300, seed=7)), top=None
    )
    handle = start()
    try:
        host, port = handle.ingest_addr
        replay_log(log, host, port, sample_bytes=300, seed=7)
        served = fetch_rankings(handle.http_addr, top=None)
        assert served == expected
    finally:
        handle.stop()
