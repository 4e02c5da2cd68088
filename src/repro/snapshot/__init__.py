"""Heap snapshots: capture at deep-GC safepoints, dominator-tree
retained sizes, retainer chains, and drag correlation (DESIGN.md §15)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.snapshot.analyze": (
        "SnapshotAnalysis", "analyze_snapshot", "snapshot_diff_report",
        "snapshot_report", "snapshot_summary",
    ),
    "repro.snapshot.capture": ("SnapshotRecorder", "capture_snapshot"),
    "repro.snapshot.codec": (
        "HeapSnapshot", "SnapshotError", "SnapshotFile", "SnapshotNode",
        "SnapshotWriter", "read_snapshots", "write_snapshots",
    ),
    "repro.snapshot.dominators": (
        "DominatorTree", "immediate_dominators", "retained_sizes",
        "reverse_postorder",
    ),
})

__all__ = [
    "DominatorTree",
    "HeapSnapshot",
    "SnapshotAnalysis",
    "SnapshotError",
    "SnapshotFile",
    "SnapshotNode",
    "SnapshotRecorder",
    "SnapshotWriter",
    "analyze_snapshot",
    "capture_snapshot",
    "immediate_dominators",
    "read_snapshots",
    "retained_sizes",
    "reverse_postorder",
    "snapshot_diff_report",
    "snapshot_report",
    "snapshot_summary",
    "write_snapshots",
]
