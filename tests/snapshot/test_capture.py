"""Capture at deep-GC safepoints: graph shape, report content, and the
zero-cost guarantee (profiles are bit-identical with capture on)."""

import pytest

from repro.benchmarks import get_benchmark
from repro.benchmarks.runner import compile_benchmark
from repro.core.analyzer import DragAnalysis
from repro.core.profiler import profile_program
from repro.snapshot import (
    SnapshotRecorder,
    analyze_snapshot,
    read_snapshots,
    snapshot_report,
    snapshot_summary,
)


def _profile_with_snapshots(name):
    bench = get_benchmark(name)
    program = compile_benchmark(bench, revised=False)
    recorder = SnapshotRecorder()  # no writer: snapshots stay in memory
    profile = profile_program(
        program,
        bench.primary_args,
        interval_bytes=bench.interval_bytes,
        max_heap=bench.max_heap,
        snapshotter=recorder,
    )
    recorder.close()
    return bench, profile, recorder


@pytest.fixture(scope="module")
def db_run():
    return _profile_with_snapshots("db")


def test_db_captures_at_every_safepoint_plus_end(db_run):
    _bench, profile, recorder = db_run
    assert recorder.capture_count == len(recorder.snapshots)
    assert recorder.capture_count >= 2
    reasons = {s.reason for s in recorder.snapshots}
    assert reasons == {"interval", "end"}
    # Snapshots ride the deep-GC byte clock, monotonically.
    clocks = [s.clock for s in recorder.snapshots]
    assert clocks == sorted(clocks)


def test_graph_shape(db_run):
    _bench, _profile, recorder = db_run
    peak = max(recorder.snapshots, key=lambda s: s.total_bytes)
    assert peak.root.synthetic and peak.root.size == 0
    # Root edges are labeled with provenance.
    kinds = {label.split()[0] for _dst, label in peak.root.edges}
    assert "local" in kinds
    # Every edge targets a real node index.
    for node in peak.nodes:
        for dst, _label in node.edges:
            assert 0 < dst < peak.node_count


def test_capture_does_not_perturb_the_profile(db_run):
    """The convention the whole integration rests on: capture only
    reads the heap, so the record stream is identical with it on."""
    bench, profile, _recorder = db_run
    program = compile_benchmark(bench, revised=False)
    plain = profile_program(
        program,
        bench.primary_args,
        interval_bytes=bench.interval_bytes,
        max_heap=bench.max_heap,
    )
    def flat(records):
        return [
            tuple(getattr(r, field) for field in type(r).__slots__)
            for r in records
        ]

    assert flat(plain.records) == flat(profile.records)
    assert plain.end_time == profile.end_time


def test_db_report_names_the_retaining_container(db_run):
    """The acceptance check: on db the report names a container
    retaining dragged objects, with its retained size."""
    _bench, profile, recorder = db_run
    peak = max(recorder.snapshots, key=lambda s: s.total_bytes)
    report = snapshot_report(peak, drag_analysis=DragAnalysis(profile.records))
    assert "Database" in report
    assert "retained" in report and "% of reachable" in report
    assert "dominating reference" in report
    assert "pins dragged site" in report
    assert "chain: <root>" in report


def test_db_double_reachable_records_have_no_single_cut(db_run):
    """db's DbRecords hang off both the Vector and the HashTable, so
    the dominator analysis must refuse to attribute them to either
    container — the reason the paper's db rewriting is a wash."""
    _bench, _profile, recorder = db_run
    peak = max(recorder.snapshots, key=lambda s: s.total_bytes)
    analysis = analyze_snapshot(peak)
    by_type = {}
    for i, node in enumerate(analysis.nodes):
        by_type.setdefault(node.type_name, []).append(i)
    vectors = [i for i in by_type.get("Vector", [])]
    assert vectors, "db snapshot lost its Vector"
    assert by_type.get("DbRecord"), "db snapshot lost its records"
    for record in by_type["DbRecord"]:
        dom = analysis.tree.idom[record]
        # The idom is the Database (the common ancestor of both paths)
        # or the super-root (when a frame local also holds the record)
        # — never either container.
        assert analysis.nodes[dom].type_name in ("Database", "<root>")


def test_strings_single_path_containers_are_cuttable():
    """The strings benchmark exists to give DRAG008 prey: sessions are
    reachable only via registry.sessions, agent strings only via
    registry.byUser, so both containers carry a dominating reference."""
    _bench, profile, recorder = _profile_with_snapshots("strings")
    peak = max(recorder.snapshots, key=lambda s: s.total_bytes)
    analysis = analyze_snapshot(peak)
    domrefs = set()
    for i in analysis.top_retained(6):
        ref = analysis.dominating_reference(i)
        if ref is not None:
            owner, label = ref
            domrefs.add((analysis.nodes[owner].type_name, label))
    assert ("SessionRegistry", "sessions") in domrefs
    assert ("SessionRegistry", "byUser") in domrefs
    # And the big one pins the session allocation site with real drag.
    drag = DragAnalysis(profile.records)
    sessions_vec = next(
        i for i in analysis.top_retained(6)
        if analysis.dominating_reference(i) is not None
        and analysis.dominating_reference(i)[1] == "sessions"
    )
    pinned = analysis.pinned_drag_sites(sessions_vec, drag)
    assert any("StringSession" in label for label, _drag, _bytes in pinned)


def test_stream_to_file_round_trips(tmp_path, db_run):
    bench = get_benchmark("db")
    path = tmp_path / "db.rhs"
    program = compile_benchmark(bench, revised=False)
    recorder = SnapshotRecorder(out=str(path), metadata={"benchmark": "db"})
    profile_program(
        program,
        bench.primary_args,
        interval_bytes=bench.interval_bytes,
        max_heap=bench.max_heap,
        snapshotter=recorder,
    )
    recorder.close()
    # Streaming mode buffers nothing in memory.
    assert recorder.snapshots == []
    loaded = read_snapshots(path, strict=True)
    assert loaded.complete
    assert len(loaded.snapshots) == recorder.capture_count
    assert loaded.metadata["benchmark"] == "db"
    _bench, _profile, buffered = db_run
    for got, want in zip(loaded.snapshots, buffered.snapshots):
        assert got.clock == want.clock
        assert got.node_count == want.node_count
        assert got.total_bytes == want.total_bytes
    summary = snapshot_summary(loaded)
    assert summary["snapshots"] == recorder.capture_count
    assert summary["latest"]["top_retainers"]
