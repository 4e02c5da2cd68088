"""A small worklist dataflow framework over instruction-level CFGs.

Facts are frozensets; transfer functions are per-instruction gen/kill.
One solver, :func:`solve`, runs in either direction with either merge:

* **may** (union, BOTTOM = empty set) — what the Section-5 analyses
  (liveness, usage) need;
* **must** (intersection, TOP = a caller-supplied ``universe``) — what
  the interprocedural "definitely used on all paths" facts of
  :mod:`repro.lint.interproc` need. Facts start at TOP and shrink
  monotonically to the greatest fixpoint; unreachable pcs keep TOP,
  the conventional (vacuous) verdict for code that never runs.

Worklists are seeded in reverse-postorder (forward) / postorder
(backward) so that facts flow in roughly topological order and each
node is usually visited O(loop-nesting) times instead of O(n).
``order="linear"`` seeds in raw instruction order regardless of
direction — the naive chaotic-iteration baseline that
``tests/analysis/test_dataflow.py`` counts against on every method of
db, euler and jess (for backward analyses it is drastically worse).
The fixpoint is unique either way — order only changes how fast it is
reached.

:data:`stats` records the inner-loop iteration count of the most
recent solve, for benchmarking.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, FrozenSet, List, Optional, Tuple

from repro.analysis.cfg import ControlFlowGraph
from repro.snapshot.dominators import reverse_postorder

GenKill = Tuple[FrozenSet, FrozenSet]  # (gen, kill)

EMPTY: FrozenSet = frozenset()


class SolverStats:
    """Iteration counters for the most recent solver call (cumulative
    totals are kept as well so a batch of solves can be measured)."""

    __slots__ = ("last_iterations", "total_iterations")

    def __init__(self) -> None:
        self.last_iterations = 0
        self.total_iterations = 0

    def _record(self, iterations: int) -> None:
        self.last_iterations = iterations
        self.total_iterations += iterations

    def reset(self) -> None:
        self.last_iterations = 0
        self.total_iterations = 0


stats = SolverStats()


def _seed_order(cfg: ControlFlowGraph, forward: bool, order: str) -> List[int]:
    """Reverse postorder (forward) or postorder (backward) from the
    entry, children taken highest pc first; unreachable pcs are seeded
    too, after the postorder. ``order="linear"`` is plain pc order."""
    n = len(cfg)
    if order == "linear" or n == 0:
        return list(range(n))
    rpo = reverse_postorder([sorted(s, reverse=True) for s in cfg.succs])
    reached = set(rpo)
    unreachable = [pc for pc in range(n) if pc not in reached]
    if forward:
        return unreachable[::-1] + rpo
    return rpo[::-1] + unreachable


def solve(
    cfg: ControlFlowGraph,
    gen_kill: Callable[[int], GenKill],
    direction: str,
    boundary: FrozenSet = EMPTY,
    universe: Optional[FrozenSet] = None,
    order: str = "rpo",
) -> Tuple[List[FrozenSet], List[FrozenSet]]:
    """Returns (in_facts, out_facts) per pc.

    ``direction="forward"``::

        in[pc]  = meet of out[p] for p in preds(pc)   (meet with
                  ``boundary`` at the entry, pc 0)
        out[pc] = gen(pc) | (in[pc] - kill(pc))

    ``direction="backward"``::

        out[pc] = meet of in[s] for s in succs(pc)    (``boundary`` at
                  exits)
        in[pc]  = gen(pc) | (out[pc] - kill(pc))

    The meet is union from the empty set (may) when ``universe`` is
    None, else intersection from ``universe`` (must).
    """
    n = len(cfg)
    must = universe is not None
    identity = universe if must else EMPTY
    ins: List[FrozenSet] = [identity] * n
    outs: List[FrozenSet] = [identity] * n
    if n == 0:
        return ins, outs
    forward = direction == "forward"
    if forward:
        before, after, meet_from, notify = ins, outs, cfg.preds, cfg.succs
        at_boundary = [False] * n
        at_boundary[0] = True
    elif direction == "backward":
        before, after, meet_from, notify = outs, ins, cfg.succs, cfg.preds
        at_boundary = [not succs for succs in cfg.succs]
    else:
        raise ValueError(f"unknown direction {direction!r}")
    worklist = deque(_seed_order(cfg, forward, order))
    queued = [True] * n
    iterations = 0
    while worklist:
        pc = worklist.popleft()
        queued[pc] = False
        iterations += 1
        fact = boundary if at_boundary[pc] else identity
        if must:
            for other in meet_from[pc]:
                fact = fact & after[other]
        else:
            for other in meet_from[pc]:
                fact = fact | after[other]
        gen, kill = gen_kill(pc)
        new = gen | (fact - kill)
        before[pc] = fact
        if new != after[pc]:
            after[pc] = new
            for other in notify[pc]:
                if not queued[other]:
                    queued[other] = True
                    worklist.append(other)
    stats._record(iterations)
    return ins, outs
