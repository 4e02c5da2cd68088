"""The streaming-timeline contracts (PR 10).

Four claims, each pinned here:

1. **Streaming == post-hoc.** The timeline built incrementally during
   a live run (one ``TimelineBuilder.add`` per reclaimed object) is
   bit-identical — ``==`` on the full JSON payload — to one recomputed
   after the fact from the v2 log the same run wrote.
2. **Merge == batch.** K-way sharded builders merge to the batch
   payload (``prove_merge_equals_batch(..., timelines=True)``),
   including a byte-sampled leg where every cell is a weighted sum.
3. **Weight-corrected.** Under ``--sample-bytes`` the ``est_*`` series
   are unbiased within the PR 8 tolerances.
4. **Useful surfaces.** Truncated logs degrade gracefully, the HTML
   dashboard is well-formed with stable element ids, and the serve
   daemon's ``GET /timeline`` equals the batch payload with markers
   spliced in.
"""

import json
from html.parser import HTMLParser

import pytest

from repro.core.sampler import ByteSampler
from repro.obs.htmlreport import render_html
from repro.obs.timeline import (
    DEFAULT_BIN_BYTES,
    KINDS,
    TimelineBuilder,
    format_bytes,
    render_timeline_text,
    sparkline,
)
from repro.serve.merge import prove_merge_equals_batch
from repro.stream.codec import read_v2_log
from tests.obs.conftest import TIMELINE_BENCHES

SAMPLE_BYTES = 500  # the PR 8 accuracy-gate configuration
SEED = 0
TOLERANCE = 0.10


def rebuild(records, samples=(), end_time=None, bin_bytes=DEFAULT_BIN_BYTES):
    builder = TimelineBuilder(bin_bytes=bin_bytes).consume(records)
    for sample in samples:
        builder.add_sample(sample)
    builder.note_end(end_time)
    return builder


def resample(records, sample_bytes=SAMPLE_BYTES, seed=SEED):
    """The replay-client reweighting: keep survivors with composed
    Horvitz-Thompson weights."""
    sampler = ByteSampler(sample_bytes, seed=seed)
    out = []
    for record in records:
        w = sampler.sample(record.size)
        if w:
            out.append(record.with_weight(w * record.weight))
    return out


@pytest.mark.parametrize("name", TIMELINE_BENCHES)
def test_streaming_equals_posthoc_from_log(timeline_profiles, name):
    """The live builder's payload equals a recompute from the log the
    same run streamed to disk — records, markers, end time, and all."""
    result, path, live = timeline_profiles[name]
    loaded = read_v2_log(path)
    assert len(loaded.records) == len(result.records)
    posthoc = rebuild(loaded.records, loaded.samples, loaded.end_time)
    assert posthoc.payload(top=None) == live.payload(top=None)
    # ... and equals a rebuild from the in-memory records too.
    buffered = rebuild(result.records, result.samples, result.end_time)
    assert buffered.payload(top=None) == live.payload(top=None)


@pytest.mark.parametrize("name", TIMELINE_BENCHES)
def test_timeline_merge_equals_batch(timeline_profiles, name):
    result, _, _ = timeline_profiles[name]
    proof = prove_merge_equals_batch(
        result.records,
        shard_counts=(2, 4),
        timelines=True,
        end_time=result.end_time,
    )
    assert proof["timeline_bins"] > 0
    assert proof["timeline_bin_bytes"] == DEFAULT_BIN_BYTES


def test_timeline_merge_equals_batch_with_sampled_weights(timeline_profiles):
    """The sharded-merge proof must hold when every cell is a weighted
    float sum, not just the int fast path."""
    result, _, _ = timeline_profiles["db"]
    weighted = resample(result.records)
    assert any(r.weight != 1.0 for r in weighted)
    proof = prove_merge_equals_batch(
        weighted, shard_counts=(2, 4), timelines=True, end_time=result.end_time
    )
    assert proof["timeline_bins"] > 0


@pytest.mark.parametrize("name", TIMELINE_BENCHES)
def test_weighted_series_within_tolerance(timeline_profiles, name):
    """est_* totals from a byte-sampled stream stay within the PR 8
    accuracy envelope of the full-stream truth; the observed series
    collapse to exactly the estimates at full rate."""
    result, _, full = timeline_profiles[name]
    sampled = rebuild(resample(result.records), end_time=result.end_time)
    payload = sampled.payload(top=None)
    assert payload["sampled"] is True
    assert payload["effective_sample_rate"] < 1.0
    assert payload["est_total_bytes"] == pytest.approx(
        full.analysis.total_bytes, rel=TOLERANCE
    )
    assert payload["est_total_drag"] == pytest.approx(
        full.analysis.total_drag, rel=TOLERANCE
    )
    # Full-rate streams: est series are the very same integers.
    full_payload = full.payload(top=None)
    assert full_payload["sampled"] is False
    for kind in KINDS:
        entry = full_payload["series"][kind]
        assert entry["est_values"] == entry["values"]


@pytest.mark.parametrize("name", TIMELINE_BENCHES)
def test_series_bin_sums_conserve_exact_integrals(timeline_profiles, name):
    """Bins tile the whole byte-clock span, so each series' bin sum
    must equal the exact space-time total computed straight from the
    records — this pins the inlined head/tail/body bin arithmetic in
    ``TimelineBuilder.add`` against an independent ground truth."""
    from repro.core.integrals import _interval

    result, _, live = timeline_profiles[name]
    payload = live.payload(top=None)

    def exact_total(kind):
        total = 0
        for r in result.records:
            span = _interval(r, kind)
            if span is not None and span[1] > span[0]:
                total += r.size * (span[1] - span[0])
        return total

    for kind in KINDS:
        assert sum(payload["series"][kind]["values"]) == exact_total(kind)
    # Sites partition the records, so their drag strips conserve too.
    assert sum(
        sum(site["values"]) for site in payload["sites"]
    ) == exact_total("drag")
    assert payload["total_drag"] == exact_total("drag")


def test_truncated_log_tolerated(timeline_profiles, tmp_path):
    """A mid-frame-truncated log (crashed run) still yields a timeline
    over every complete record."""
    result, path, live = timeline_profiles["db"]
    data = path.read_bytes()
    cut = tmp_path / "cut.dlog2"
    cut.write_bytes(data[: len(data) * 6 // 10])
    loaded = read_v2_log(cut, strict=False)
    assert 0 < len(loaded.records) < len(result.records)
    builder = rebuild(loaded.records, loaded.samples, loaded.end_time)
    payload = builder.payload()
    assert payload["objects"] == len(loaded.records)
    assert payload["bins"] > 0
    assert render_timeline_text(payload)  # renders without the END frame


class _IdCollector(HTMLParser):
    def __init__(self):
        super().__init__()
        self.ids = []
        self.errors = []

    def handle_starttag(self, tag, attrs):
        for key, value in attrs:
            if key == "id":
                self.ids.append(value)


def test_html_report_well_formed(timeline_profiles):
    result, _, live = timeline_profiles["db"]
    payload = live.payload(top=5)
    snapshots = [
        {"time": time, "retained_bytes": reachable}
        for time, reachable, _ in payload["samples"][:3]
    ]
    doc = render_html(payload, title="db timeline", snapshots=snapshots)
    parser = _IdCollector()
    parser.feed(doc)
    parser.close()
    ids = set(parser.ids)
    for required in (
        "figure2",
        "series-reachable",
        "series-in_use",
        "series-drag",
        "lifetime-hist",
        "snapshot-markers",
    ):
        assert required in ids, f"missing element id {required!r}"
    strips = [i for i in parser.ids if i.startswith("site-strip-")]
    assert len(strips) == len(payload["sites"])
    assert "retained" in doc  # marker tooltips joined with snapshot data
    # Payloads must survive a JSON round trip unchanged (the serve path).
    assert json.loads(json.dumps(payload)) == payload


def test_html_report_empty_payload_keeps_ids():
    doc = render_html(TimelineBuilder().payload())
    for required in ("series-reachable", "series-in_use", "series-drag"):
        assert required in doc


def test_serve_timeline_endpoint_equals_batch(timeline_profiles):
    """GET /timeline from a sharded daemon == the batch payload, with
    the loop-side deep-GC markers spliced in; a second, byte-resampled
    replay keeps the estimates within tolerance."""
    from repro.serve.client import fetch_json, fetch_metrics_text, replay_log
    from repro.serve.server import ServeConfig, start_server_thread

    result, log, _ = timeline_profiles["db"]
    handle = start_server_thread(
        ServeConfig(port=0, http_port=0, workers=3, inline=True, quiet=True)
    )
    try:
        host, port = handle.ingest_addr
        ack = replay_log(str(log), host, port)
        assert ack["ok"]
        served = fetch_json(handle.http_addr, "/timeline?top=all")
        expected = rebuild(result.records, end_time=result.end_time).payload(
            top=None, include_samples=False
        )
        expected["samples"] = sorted(
            [s.time, s.reachable_bytes, s.object_count] for s in result.samples
        )
        assert served == json.loads(json.dumps(expected))

        # Second client replays a resampled stream: totals double-count
        # approximately (full + estimated full), within tolerance.
        ack = replay_log(
            str(log), host, port, sample_bytes=SAMPLE_BYTES, seed=SEED
        )
        assert ack["ok"]
        served = fetch_json(handle.http_addr, "/timeline?top=1")
        assert served["sampled"] is True
        assert served["est_total_bytes"] == pytest.approx(
            2 * expected["total_bytes"], rel=TOLERANCE
        )
        assert len(served["sites"]) == 1

        text = fetch_metrics_text(handle.http_addr)
        assert "repro_timeline_requests_total 2" in text
        assert "repro_timeline_bins" in text
        assert f"repro_timeline_bin_bytes {DEFAULT_BIN_BYTES}" in text
    finally:
        handle.stop()


def test_timeline_applies_the_analysis_record_filter(tmp_path):
    """/timeline and /rankings read one fold: an excluded record counts
    in neither, and every site's totals agree."""
    from repro.serve.client import fetch_json, fetch_rankings, replay_log
    from repro.serve.server import ServeConfig, start_server_thread
    from tests.core.test_analyzer import make_record
    from tests.serve.test_server import write_v2_log

    records = [
        make_record(handle=i, size=16 + i, last_use=0 if i % 3 else 400,
                    site_label=f"Site.m:{i % 4}")
        for i in range(30)
    ]
    records.append(make_record(handle=99, site_label="Site.m:9", excluded=True))
    log = write_v2_log(tmp_path / "excluded.dlog2", records, end_time=5000)
    handle = start_server_thread(
        ServeConfig(port=0, http_port=0, workers=2, inline=True, quiet=True)
    )
    try:
        host, port = handle.ingest_addr
        assert replay_log(str(log), host, port)["ok"]
        timeline = fetch_json(handle.http_addr, "/timeline?top=all")
        rankings = fetch_rankings(handle.http_addr, top=None)
    finally:
        handle.stop()
    assert timeline["objects"] == rankings["objects"] == len(records) - 1
    ranked = {entry["site"]: entry for entry in rankings["sites"]}
    assert [site["site"] for site in timeline["sites"]] == list(ranked)
    for site in timeline["sites"]:
        for key in ("objects", "bytes", "drag", "est_drag", "drag_share"):
            assert site[key] == ranked[site["site"]][key], (site["site"], key)


def test_serve_timeline_can_be_disabled():
    from urllib.error import HTTPError

    from repro.serve.client import fetch_json
    from repro.serve.server import ServeConfig, start_server_thread

    handle = start_server_thread(
        ServeConfig(
            port=0, http_port=0, workers=1, inline=True, quiet=True,
            timeline_bin_bytes=0,
        )
    )
    try:
        with pytest.raises(HTTPError):
            fetch_json(handle.http_addr, "/timeline")
    finally:
        handle.stop()


def test_sparkline_and_render_shapes():
    assert sparkline([]) == ""
    assert sparkline([0, 0]) == "▁▁"
    line = sparkline(list(range(100)), width=10)
    assert len(line) == 10
    assert line[-1] == "█"
    assert format_bytes(512) == "512 B"
    assert format_bytes(64 * 1024) == "64.0 KB"
    payload = TimelineBuilder().payload()
    text = render_timeline_text(payload)
    assert "heap timeline" in text and "(empty timeline)" in text
