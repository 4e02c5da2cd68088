"""Lifetime patterns at an (anchor) allocation site, per §3.4.

The paper identifies four patterns of behaviour and maps each to a
transformation:

1. *All* drag at the site is due to never-used objects (counting
   objects only touched inside their own constructor as never-used)
   → dead-code removal.
2. *Most* dragged objects at the site are never-used → lazy allocation.
3. Most dragged objects at the site have a *large drag* → assigning
   null to the dead reference.
4. The *variance* of the drag is high → probably no transformation
   helps (e.g. db's query-driven repository).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional

from repro.core.analyzer import SiteGroup


class LifetimePattern(Enum):
    ALL_NEVER_USED = 1
    MOSTLY_NEVER_USED = 2
    LARGE_DRAG = 3
    HIGH_VARIANCE = 4
    UNCLASSIFIED = 5


SUGGESTED_TRANSFORMATION = {
    LifetimePattern.ALL_NEVER_USED: "dead-code-removal",
    LifetimePattern.MOSTLY_NEVER_USED: "lazy-allocation",
    LifetimePattern.LARGE_DRAG: "assign-null",
    LifetimePattern.HIGH_VARIANCE: None,
    LifetimePattern.UNCLASSIFIED: None,
}


def constructor_only_use(record, ctor_use_window: int = 2048) -> bool:
    """True when the object is never used, or its only recorded uses
    happened inside a constructor right after creation (§3.4: "the only
    use of an object may be in its constructor and its in-use time is
    very short; we also consider these as objects that were never
    used").

    Because time is bytes allocated, an in-use duration of 0 alone is
    ambiguous (uses with no intervening allocation take zero time); the
    deciding signal is the nested last-use site being a ``<init>`` frame.
    """
    last_use = record.last_use_time
    if last_use == 0:
        return True
    if last_use - record.creation_time > ctor_use_window:
        return False
    frame = record.last_use_frame
    return frame is not None and ".<init>:" in frame


def classify_group(
    group: SiteGroup,
    interval_bytes: int = 100 * 1024,
    ctor_use_window: int = 2048,
    all_threshold: float = 0.95,
    most_threshold: float = 0.50,
    large_drag_fraction: float = 0.50,
    variance_cv: float = 1.25,
) -> LifetimePattern:
    """Classify a site group into one of the four §3.4 patterns.

    ``ctor_use_window`` bounds how much allocation a constructor may do
    while its uses still count as construction-time uses.
    ``interval_bytes`` scales the large-drag test: an object whose drag
    time spans at least half a deep-GC interval was observably dragging.
    """
    if group.count == 0 or group.total_drag == 0:
        return LifetimePattern.UNCLASSIFIED

    # One pass over the records and the space_time triples the fold
    # stored beside them yields everything the four tests below need.
    drags = []
    never_drag = 0
    large = 0
    half_interval = interval_bytes // 2
    for record, (drag_time, drag, _) in zip(group.records, group.facts):
        drags.append(drag)
        if constructor_only_use(record, ctor_use_window):
            never_drag += drag
        if drag_time >= half_interval:
            large += 1

    never_fraction = never_drag / group.total_drag
    if never_fraction >= all_threshold:
        return LifetimePattern.ALL_NEVER_USED
    if never_fraction >= most_threshold:
        return LifetimePattern.MOSTLY_NEVER_USED

    mean = sum(drags) / len(drags)
    if mean > 0 and len(drags) > 1:
        variance = sum((d - mean) ** 2 for d in drags) / len(drags)
        cv = math.sqrt(variance) / mean
        if cv > variance_cv:
            return LifetimePattern.HIGH_VARIANCE

    if large / group.count >= large_drag_fraction:
        return LifetimePattern.LARGE_DRAG
    return LifetimePattern.UNCLASSIFIED


def suggest_transformation(pattern: LifetimePattern) -> Optional[str]:
    """The §3.4 pattern → transformation mapping."""
    return SUGGESTED_TRANSFORMATION[pattern]
