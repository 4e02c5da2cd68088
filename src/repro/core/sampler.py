"""Byte-weighted allocation sampling (the weight-carrying record path).

The paper's profiler trailers *every* object.  That is fine for a
research harness but not for production traffic: the serve daemon
multiplies the record stream by N concurrent clients, and real
deployments want ~1e-3..1e-4 sampling rates.  Sampling by *allocation
count* is the wrong tool — a handful of huge allocations dominate the
drag integral, and a count sampler misses them — so we sample by
**bytes**, the same way ClickHouse's heap profiler and tcmalloc's
peak-heap sampler do.

The scheme is a countdown sampler over the allocation byte stream:

* Pick a target rate ``1/N`` ("one sample point per N bytes").  Draw a
  geometric gap ``G ~ Geometric(p=1/N)`` (support ``{1, 2, ...}``) and
  count allocated bytes down; the allocation that consumes the
  countdown is *sampled*, and a fresh gap is drawn.  By memorylessness
  this is exactly "each byte is a sample point independently with
  probability 1/N", so an allocation of size ``s`` is included with

      p(s) = 1 - (1 - 1/N) ** s

* Every sampled allocation carries the Horvitz-Thompson **weight**
  ``w = 1 / p(s)``.  Summing ``w * f(obj)`` over sampled objects is an
  unbiased estimator of ``sum f(obj)`` over all objects, for any
  per-object quantity ``f`` (count, bytes, drag, ...).  Large
  allocations are almost always sampled and get weight ~1; small ones
  are rarely sampled but get proportionally large weights.

* ``N <= 1`` means "sample everything": every allocation is included
  with weight exactly ``1.0`` and the RNG is never consulted, which is
  what makes ``--sample-bytes 1`` bit-identical to an unsampled run.

The sampler is deterministic given its seed (``random.Random``), which
is what lets CI pin sampled rankings.
"""

from __future__ import annotations

import math
import random
from typing import Dict

__all__ = [
    "ByteSampler",
    "WeightedTotal",
    "inclusion_probability",
]


def inclusion_probability(size: int, sample_bytes: int) -> float:
    """P(an allocation of ``size`` bytes is sampled) at rate 1/``sample_bytes``.

    ``1 - (1 - 1/N)**s``, computed via ``log1p``/``expm1`` so tiny rates
    and huge allocations stay accurate.
    """
    if sample_bytes <= 1:
        return 1.0
    if size <= 0:
        return 0.0
    return -math.expm1(size * math.log1p(-1.0 / sample_bytes))


class ByteSampler:
    """Deterministic countdown sampler over the allocation byte stream.

    ``sample(size)`` returns the Horvitz-Thompson weight (``>= 1.0``)
    when the allocation is included and ``0.0`` when it is skipped.
    Exact onAlloc/onFree pairing is the *caller's* contract: the
    profiler marks inclusion by attaching a trailer, so a skipped
    allocation never has a trailer and its later uses/frees are
    structurally ignored.
    """

    __slots__ = ("sample_bytes", "seed", "sampled", "skipped", "_rng", "_countdown", "_log_keep")

    def __init__(self, sample_bytes: int, seed: int = 0) -> None:
        if sample_bytes < 1:
            raise ValueError(f"sample_bytes must be >= 1, got {sample_bytes}")
        self.sample_bytes = int(sample_bytes)
        self.seed = seed
        self.sampled = 0
        self.skipped = 0
        self._rng = random.Random(seed)
        if self.sample_bytes > 1:
            # log(1 - 1/N): reused for every geometric gap draw.
            self._log_keep = math.log1p(-1.0 / self.sample_bytes)
            self._countdown = self._gap()
        else:
            self._log_keep = 0.0
            self._countdown = 0

    def _gap(self) -> int:
        """Draw the byte distance to the next sample point, ``>= 1``."""
        u = self._rng.random()  # in [0, 1)
        return int(math.log1p(-u) / self._log_keep) + 1

    def inclusion_probability(self, size: int) -> float:
        return inclusion_probability(size, self.sample_bytes)

    def sample(self, size: int) -> float:
        """Advance the byte clock by one allocation of ``size`` bytes.

        Returns the record's weight if the allocation is sampled
        (``1.0`` exactly at full rate), else ``0.0``.
        """
        if self.sample_bytes <= 1:
            self.sampled += 1
            return 1.0
        if size > 0:
            self._countdown -= size
            if self._countdown <= 0:
                while self._countdown <= 0:
                    self._countdown += self._gap()
                self.sampled += 1
                return 1.0 / self.inclusion_probability(size)
        self.skipped += 1
        return 0.0

    def __repr__(self) -> str:
        return (
            f"<ByteSampler 1/{self.sample_bytes} seed={self.seed}"
            f" sampled={self.sampled} skipped={self.skipped}>"
        )


class WeightedTotal:
    """Exact accumulator for Horvitz-Thompson sums.

    The streaming/batch/sharded analyzers must agree *bit for bit* on
    weighted aggregates, but float addition is not associative — the
    same records folded in a different order (or via a shard merge)
    can drift in the last ulp and break payload equality.  So weighted
    contributions are kept as a Shewchuk expansion (the ``math.fsum``
    representation: a list of non-overlapping partials whose exact sum
    is the true total), which makes every sum read through :meth:`plus`
    the correctly rounded true sum regardless of accumulation or merge
    order.

    Integer contributions take a separate int path, so a total that
    never received a float stays an exact ``int`` — type and value —
    and serializes as ``1000``, not ``1000.0``.
    """

    __slots__ = ("ints", "partials")

    def __init__(self) -> None:
        self.ints = 0
        self.partials = []  # type: list

    def add(self, value) -> None:
        if type(value) is int:
            self.ints += value
            return
        # Shewchuk grow-expansion: x + partials, exactly.
        x = float(value)
        partials = self.partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "WeightedTotal") -> None:
        self.ints += other.ints
        for p in other.partials:
            self.add(p)

    def plus(self, base: int, *others: "WeightedTotal"):
        """``base`` plus this total and ``others``, exactly: an int
        while none of them holds a float partial, else the correctly
        rounded float sum."""
        ints = base + self.ints
        partials = self.partials
        for other in others:
            ints += other.ints
            partials = partials + other.partials
        return math.fsum(partials + [ints]) if partials else ints

    def __repr__(self) -> str:
        return f"<WeightedTotal {self.plus(0)}>"


# A weight-corrected quantity is stored as its observed int plus a sparse
# *correction*: a dict of WeightedTotals, keyed like the observed table,
# that only records with weight w != 1.0 write. A contribution v of such
# a record adds w*v - v, exactly: w*v as a float partial, -v to the int
# part. The estimate is observed + correction, so it is the observed int
# itself until a weighted record touches its key, and the correctly
# rounded float sum after. These three functions are the whole protocol.


def reweight(corrections: Dict, key, observed, weight: float) -> None:
    """Correct the contribution ``observed`` to cell ``key`` for its
    record's ``weight`` (called only when ``weight != 1.0``)."""
    total = corrections.get(key)
    if total is None:
        total = corrections[key] = WeightedTotal()
    total.add(weight * observed)
    total.ints -= observed


def corrected(observed: int, corrections: Dict, key):
    """The estimate of cell ``key`` whose observed value is ``observed``."""
    total = corrections.get(key)
    return observed if total is None else total.plus(observed)


def merge_corrections(mine: Dict, theirs: Dict) -> None:
    """Fold ``theirs`` into ``mine``, cell by cell. The observed tables
    merge separately, by int addition."""
    for key, total in theirs.items():
        existing = mine.get(key)
        if existing is None:
            existing = mine[key] = WeightedTotal()
        existing.merge(total)
