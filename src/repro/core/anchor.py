"""Anchor allocation sites (§3.4).

"We choose a nested allocation site with high drag. The bottom level is
likely to be an allocation site in JDK or other library code, e.g.,
allocating a character array in java.util.String. We follow the call
chain upwards looking for the first place in application code where a
reference to the allocated object ... is stored in a variable. We call
this place the anchor allocation site."

Our approximation: walk the nested allocation chain (innermost frame
first) and return the first frame belonging to a non-library class.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.analyzer import SiteGroup

if TYPE_CHECKING:
    from repro.bytecode.program import CompiledProgram


def _frame_class(label: str) -> str:
    # labels look like "Class.method:line"
    return label.split(".", 1)[0]


def anchor_frame(nested_chain: Iterable[str], program: CompiledProgram) -> Optional[str]:
    """First application (non-library) frame label in a nested chain,
    scanning from the allocation outward; None if the whole chain is
    library code."""
    for label in nested_chain:
        cls = program.classes.get(_frame_class(label))
        if cls is not None and not cls.is_library:
            return label
    return None


def anchor_site(group: SiteGroup, program: CompiledProgram) -> Optional[str]:
    """Anchor allocation site for a drag group: the dominant application
    frame among the group's nested allocation chains."""
    votes = {}
    for record in group.records:
        frame = anchor_frame(record.nested_alloc, program)
        if frame is not None:
            votes[frame] = votes.get(frame, 0) + record.drag
    if not votes:
        return None
    return max(sorted(votes), key=lambda k: votes[k])
