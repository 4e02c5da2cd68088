"""The paper's contribution: the two-phase drag-profiling tool.

Phase 1 (:mod:`repro.core.profiler`) runs inside the VM: it attaches a
trailer to every object, timestamps creation and every use on the
byte-allocation clock, forces a deep GC every 100 KB of allocation, and
logs a record per object at reclamation (or program end).

Phase 2 (:mod:`repro.core.analyzer` and friends) is offline: it
partitions dragged objects by allocation site, computes drag space-time
products, classifies lifetime patterns, and produces the sorted reports
a programmer (or the automatic optimizer in :mod:`repro.transform`)
uses to find rewriting opportunities.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.trailer": ("ObjectRecord", "Trailer"),
    "repro.core.profiler": (
        "HeapProfiler", "ProfileResult", "profile_program", "profile_source",
    ),
    "repro.core.analyzer": ("DragAnalysis", "Histogram", "SiteGroup"),
    "repro.core.patterns": ("LifetimePattern", "classify_group"),
    "repro.core.integrals": (
        "HeapCurve", "curve_from_records", "integral_mb2", "savings",
    ),
    "repro.core.anchor": ("anchor_site",),
    "repro.core.report": ("drag_report",),
    "repro.core.logfile": ("iter_log", "read_log"),
})

__all__ = [
    "ObjectRecord",
    "Trailer",
    "HeapProfiler",
    "ProfileResult",
    "profile_program",
    "profile_source",
    "DragAnalysis",
    "Histogram",
    "SiteGroup",
    "LifetimePattern",
    "classify_group",
    "HeapCurve",
    "curve_from_records",
    "integral_mb2",
    "savings",
    "anchor_site",
    "drag_report",
    "read_log",
    "iter_log",
]
