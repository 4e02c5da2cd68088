"""Object trailers and log records.

§2.1.1: "We attach a trailer to every object to keep track of our
profiling information. We do not count the space taken for this trailer
in our data. ... An object's trailer fields include its creation time,
its last use time, its length in bytes, its nested allocation site and
its nested last-use site."

Times are bytes allocated since program start. A last-use time of 0
means the object was never used (§3.4: "the last use time is zero").
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple


class AllocContext(NamedTuple):
    """One allocation context: the site, the allocated type and the
    nested allocation site, with every label a record of it carries.
    The profiler interns one per distinct ``(site, type, call chain)``
    of a run, so its labels are formatted once, not once per object."""

    site: Optional[int]
    type_name: str
    label: str
    kind: str
    is_library: bool
    nested: Tuple[str, ...]


class Trailer:
    """Per-object profiling metadata (never counted in object size).
    The length is the object's ``size``; the sites are in its context."""

    __slots__ = (
        "creation_time",
        "first_use_time",
        "last_use_time",
        "context",
        "last_use_frame",
        "last_use_chain",
        "weight",
    )

    def __init__(
        self, creation_time: int, context: AllocContext, weight: float = 1.0
    ) -> None:
        self.creation_time = creation_time
        # First-use time extends the paper's measurements to the full
        # Röjemo/Runciman lag-drag-void-use decomposition [21]: lag is
        # creation -> first use, void objects are never used at all.
        self.first_use_time = 0  # 0 == never used
        self.last_use_time = 0  # 0 == never used
        self.context = context
        self.last_use_frame: Optional[str] = None
        self.last_use_chain: Optional[Tuple[str, ...]] = None
        # Statistical weight under byte sampling (1.0 == fully
        # observed).  Trailer *presence* is the sampling marker: an
        # unsampled allocation never gets a trailer at all, which is
        # what guarantees exact onAlloc/onFree pairing.
        self.weight = weight


class HeapSample:
    """Heap state captured right after one deep GC."""

    __slots__ = ("time", "reachable_bytes", "object_count")

    def __init__(self, time: int, reachable_bytes: int, object_count: int) -> None:
        self.time = time
        self.reachable_bytes = reachable_bytes
        self.object_count = object_count

    def __repr__(self) -> str:
        return f"<sample t={self.time} reachable={self.reachable_bytes}B>"


def space_time(record: "ObjectRecord") -> Tuple[int, int, int]:
    """``(drag_time, drag, in_use)`` of one record, from its raw fields.

    The paper's definitions, kept here only: drag time is collection −
    last use, or collection − creation for a never-used object, clamped
    at 0; drag is size × drag time (bytes²); in_use is size × (last use
    − creation), 0 for a never-used object. The analysis folds call this
    once per record rather than reading the chained properties.
    """
    size = record.size
    creation = record.creation_time
    last_use = record.last_use_time
    if last_use == 0:
        drag_time = record.collection_time - creation
        in_use = 0
    else:
        drag_time = record.collection_time - last_use
        in_use = size * (last_use - creation)
    if drag_time < 0:
        drag_time = 0
    return drag_time, size * drag_time, in_use


class ObjectRecord:
    """One line of the phase-1 log: everything known about one object
    at the time it was reclaimed (or the program ended)."""

    __slots__ = (
        "handle",
        "type_name",
        "size",
        "creation_time",
        "first_use_time",
        "last_use_time",
        "collection_time",
        "alloc_site",
        "site_label",
        "site_kind",
        "site_is_library",
        "nested_alloc",
        "last_use_frame",
        "last_use_chain",
        "excluded",
        "survived_to_end",
        "weight",
    )

    def __init__(
        self,
        handle: int,
        type_name: str,
        size: int,
        creation_time: int,
        last_use_time: int,
        collection_time: int,
        alloc_site: Optional[int],
        site_label: str,
        site_kind: str,
        site_is_library: bool,
        nested_alloc: Tuple[str, ...],
        last_use_frame: Optional[str],
        last_use_chain: Optional[Tuple[str, ...]],
        excluded: bool,
        survived_to_end: bool,
        first_use_time: int = 0,
        weight: float = 1.0,
    ) -> None:
        self.handle = handle
        self.type_name = type_name
        self.size = size
        self.creation_time = creation_time
        self.first_use_time = first_use_time
        self.last_use_time = last_use_time
        self.collection_time = collection_time
        self.alloc_site = alloc_site
        self.site_label = site_label
        self.site_kind = site_kind
        self.site_is_library = site_is_library
        self.nested_alloc = nested_alloc
        self.last_use_frame = last_use_frame
        self.last_use_chain = last_use_chain
        self.excluded = excluded
        self.survived_to_end = survived_to_end
        self.weight = weight

    # -- derived quantities (paper definitions) ---------------------------

    @property
    def never_used(self) -> bool:
        """§3.4: an object whose recorded last-use time is zero.
        (Röjemo/Runciman call these *void* objects.)"""
        return self.last_use_time == 0

    @property
    def is_void(self) -> bool:
        """Röjemo/Runciman terminology for never-used objects [21]."""
        return self.never_used

    @property
    def lag_time(self) -> int:
        """Röjemo/Runciman *lag*: creation until first use (0 when the
        object is void — its whole lifetime is drag instead)."""
        if self.never_used or self.first_use_time == 0:
            return 0
        return self.first_use_time - self.creation_time

    @property
    def use_time(self) -> int:
        """Röjemo/Runciman *use* phase: first use to last use."""
        if self.never_used or self.first_use_time == 0:
            return 0
        return self.last_use_time - self.first_use_time

    @property
    def in_use_time(self) -> int:
        """Length of the in-use interval [creation, last use]."""
        if self.never_used:
            return 0
        return self.last_use_time - self.creation_time

    @property
    def drag_time(self) -> int:
        """Time reachable but not in use (see :func:`space_time`)."""
        return space_time(self)[0]

    @property
    def drag(self) -> int:
        """The drag space-time product: size × drag time (bytes²)."""
        return space_time(self)[1]

    @property
    def lifetime(self) -> int:
        return max(0, self.collection_time - self.creation_time)

    # -- weight-corrected (Horvitz-Thompson) estimates ---------------------
    #
    # Each returns the *exact* int when the record is fully observed
    # (weight == 1.0), so unsampled aggregates — and their JSON
    # serializations — stay bit-identical to the pre-weight pipeline.

    @property
    def weighted_count(self) -> float:
        """Estimated number of objects this record stands for."""
        return 1 if self.weight == 1.0 else self.weight

    @property
    def weighted_size(self) -> float:
        """Estimated bytes this record stands for."""
        return self.size if self.weight == 1.0 else self.weight * self.size

    @property
    def weighted_drag(self) -> float:
        """Estimated drag space-time product this record stands for."""
        return self.drag if self.weight == 1.0 else self.weight * self.drag

    def with_weight(self, weight: float) -> "ObjectRecord":
        """Copy of this record carrying ``weight`` (used by replay-time
        resampling, where weights compose multiplicatively)."""
        return ObjectRecord(
            handle=self.handle,
            type_name=self.type_name,
            size=self.size,
            creation_time=self.creation_time,
            first_use_time=self.first_use_time,
            last_use_time=self.last_use_time,
            collection_time=self.collection_time,
            alloc_site=self.alloc_site,
            site_label=self.site_label,
            site_kind=self.site_kind,
            site_is_library=self.site_is_library,
            nested_alloc=self.nested_alloc,
            last_use_frame=self.last_use_frame,
            last_use_chain=self.last_use_chain,
            excluded=self.excluded,
            survived_to_end=self.survived_to_end,
            weight=weight,
        )

    def to_dict(self) -> dict:
        data = {
            "handle": self.handle,
            "type": self.type_name,
            "size": self.size,
            "created": self.creation_time,
            "first_use": self.first_use_time,
            "last_use": self.last_use_time,
            "collected": self.collection_time,
            "site": self.alloc_site,
            "site_label": self.site_label,
            "site_kind": self.site_kind,
            "site_lib": self.site_is_library,
            "nested": list(self.nested_alloc),
            "use_frame": self.last_use_frame,
            "use_chain": list(self.last_use_chain) if self.last_use_chain else None,
            "excluded": self.excluded,
            "survived": self.survived_to_end,
        }
        if self.weight != 1.0:
            # Emitted only when sampled, so full-rate v1 logs stay
            # byte-identical to logs written before weights existed.
            data["weight"] = self.weight
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ObjectRecord":
        return cls(
            handle=data["handle"],
            type_name=data["type"],
            size=data["size"],
            creation_time=data["created"],
            first_use_time=data.get("first_use", 0),
            last_use_time=data["last_use"],
            collection_time=data["collected"],
            alloc_site=data["site"],
            site_label=data["site_label"],
            site_kind=data["site_kind"],
            site_is_library=data["site_lib"],
            nested_alloc=tuple(data["nested"]),
            last_use_frame=data["use_frame"],
            last_use_chain=tuple(data["use_chain"]) if data["use_chain"] else None,
            excluded=data["excluded"],
            survived_to_end=data["survived"],
            weight=data.get("weight", 1.0),
        )

    def __repr__(self) -> str:
        return (
            f"<record {self.type_name}@{self.handle} size={self.size} "
            f"[{self.creation_time},{self.last_use_time},{self.collection_time}]>"
        )
