"""A small worklist dataflow framework over instruction-level CFGs.

Facts are frozensets; transfer functions are per-instruction gen/kill.
Two merge operators are provided:

* **may** (union, BOTTOM = empty set) — :func:`solve_backward` /
  :func:`solve_forward`; what the Section-5 analyses (liveness, usage)
  need.
* **must** (intersection, TOP = a caller-supplied universe) —
  :func:`solve_backward_must` / :func:`solve_forward_must`; what the
  interprocedural "definitely used on all paths" facts of
  :mod:`repro.lint.interproc` need.

Worklists are seeded in reverse-postorder (forward) / postorder
(backward) so that facts flow in roughly topological order and each
node is usually visited O(loop-nesting) times instead of O(n).
``order="linear"`` seeds in raw instruction order regardless of
direction — the naive chaotic-iteration baseline that
``tests/analysis/test_dataflow.py`` counts against on every method of
db, euler and jess (for backward analyses it is drastically worse; the previous hand-rolled reversed-pc
seeding was a special case of postorder that the DFS now formalizes
and keeps robust under irregular layouts). The fixpoint is unique
either way — order only changes how fast it is reached.

:data:`stats` records the inner-loop iteration count of the most
recent solve, for benchmarking.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, FrozenSet, List, Optional, Tuple

from repro.analysis.cfg import ControlFlowGraph

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


def _postorder(cfg: ControlFlowGraph) -> List[int]:
    """DFS postorder over successor edges from the entry (pc 0);
    unreachable pcs are appended afterwards so every node is seeded."""
    n = len(cfg)
    seen = [False] * n
    order: List[int] = []
    if n == 0:
        return order
    # Iterative DFS with an explicit stack of (node, child-iterator).
    stack: List[Tuple[int, List[int]]] = [(0, sorted(cfg.succs[0]))]
    seen[0] = True
    while stack:
        node, children = stack[-1]
        advanced = False
        while children:
            child = children.pop()
            if not seen[child]:
                seen[child] = True
                stack.append((child, sorted(cfg.succs[child])))
                advanced = True
                break
        if not advanced and stack and stack[-1][0] == node and not children:
            order.append(node)
            stack.pop()
    for pc in range(n):
        if not seen[pc]:
            order.append(pc)
    return order


def _seed_order(cfg: ControlFlowGraph, direction: str, order: str) -> List[int]:
    n = len(cfg)
    if order == "linear":
        return list(range(n))
    post = _postorder(cfg)
    if direction == "forward":
        return list(reversed(post))  # reverse postorder
    return post  # postorder: nodes near the exits first


def solve_backward(
    cfg: ControlFlowGraph,
    gen_kill: Callable[[int], GenKill],
    boundary: FrozenSet = EMPTY,
    order: str = "rpo",
) -> Tuple[List[FrozenSet], List[FrozenSet]]:
    """Backward may-analysis: returns (in_facts, out_facts) per pc.

    out[pc] = union of in[s] for s in succs(pc)   (boundary at exits)
    in[pc]  = gen(pc) | (out[pc] - kill(pc))
    """
    n = len(cfg)
    ins: List[FrozenSet] = [EMPTY] * n
    outs: List[FrozenSet] = [EMPTY] * n
    worklist = deque(_seed_order(cfg, "backward", order))
    queued = [True] * n
    iterations = 0
    while worklist:
        pc = worklist.popleft()
        queued[pc] = False
        iterations += 1
        out = boundary if not cfg.succs[pc] else EMPTY
        for succ in cfg.succs[pc]:
            out = out | ins[succ]
        gen, kill = gen_kill(pc)
        new_in = gen | (out - kill)
        outs[pc] = out
        if new_in != ins[pc]:
            ins[pc] = new_in
            for pred in cfg.preds[pc]:
                if not queued[pred]:
                    queued[pred] = True
                    worklist.append(pred)
    stats._record(iterations)
    return ins, outs


def solve_forward(
    cfg: ControlFlowGraph,
    gen_kill: Callable[[int], GenKill],
    entry: FrozenSet = EMPTY,
    order: str = "rpo",
) -> Tuple[List[FrozenSet], List[FrozenSet]]:
    """Forward may-analysis: returns (in_facts, out_facts) per pc."""
    n = len(cfg)
    ins: List[FrozenSet] = [EMPTY] * n
    outs: List[FrozenSet] = [EMPTY] * n
    if n == 0:
        return ins, outs
    worklist = deque(_seed_order(cfg, "forward", order))
    queued = [True] * n
    iterations = 0
    while worklist:
        pc = worklist.popleft()
        queued[pc] = False
        iterations += 1
        in_fact = entry if pc == 0 else EMPTY
        for pred in cfg.preds[pc]:
            in_fact = in_fact | outs[pred]
        gen, kill = gen_kill(pc)
        new_out = gen | (in_fact - kill)
        ins[pc] = in_fact
        if new_out != outs[pc]:
            outs[pc] = new_out
            for succ in cfg.succs[pc]:
                if not queued[succ]:
                    queued[succ] = True
                    worklist.append(succ)
    stats._record(iterations)
    return ins, outs


def solve_forward_must(
    cfg: ControlFlowGraph,
    gen_kill: Callable[[int], GenKill],
    universe: FrozenSet,
    entry: FrozenSet = EMPTY,
    order: str = "rpo",
) -> Tuple[List[FrozenSet], List[FrozenSet]]:
    """Forward must-analysis (intersection merge, TOP initialization).

    in[0]  = entry ∩ (∩ out[p] for p in preds(0))    (back edges into
             the entry still constrain it)
    in[pc] = ∩ out[p] for p in preds(pc)             (TOP if no preds)
    out[pc] = gen(pc) | (in[pc] - kill(pc))

    Facts start at TOP (``universe``) and shrink monotonically, so the
    solver converges to the greatest fixpoint — "definitely holds on
    every path reaching pc". Unreachable pcs keep TOP, which is the
    conventional (vacuous) verdict for code that never runs.
    """
    n = len(cfg)
    ins: List[FrozenSet] = [universe] * n
    outs: List[FrozenSet] = [universe] * n
    if n == 0:
        return ins, outs
    worklist = deque(_seed_order(cfg, "forward", order))
    queued = [True] * n
    iterations = 0
    while worklist:
        pc = worklist.popleft()
        queued[pc] = False
        iterations += 1
        if pc == 0:
            in_fact = entry
            for pred in cfg.preds[pc]:
                in_fact = in_fact & outs[pred]
        elif cfg.preds[pc]:
            in_fact = universe
            for pred in cfg.preds[pc]:
                in_fact = in_fact & outs[pred]
        else:
            in_fact = universe  # unreachable: stays TOP
        gen, kill = gen_kill(pc)
        new_out = gen | (in_fact - kill)
        ins[pc] = in_fact
        if new_out != outs[pc]:
            outs[pc] = new_out
            for succ in cfg.succs[pc]:
                if not queued[succ]:
                    queued[succ] = True
                    worklist.append(succ)
    stats._record(iterations)
    return ins, outs


def solve_backward_must(
    cfg: ControlFlowGraph,
    gen_kill: Callable[[int], GenKill],
    universe: FrozenSet,
    boundary: FrozenSet = EMPTY,
    order: str = "rpo",
) -> Tuple[List[FrozenSet], List[FrozenSet]]:
    """Backward must-analysis (intersection merge, TOP initialization).

    out[pc] = ∩ in[s] for s in succs(pc)   (``boundary`` at exits)
    in[pc]  = gen(pc) | (out[pc] - kill(pc))

    The backward dual of :func:`solve_forward_must`: "definitely holds
    on every path from pc to an exit" — e.g. a reference that is
    overwritten on all paths before any further use.
    """
    n = len(cfg)
    ins: List[FrozenSet] = [universe] * n
    outs: List[FrozenSet] = [universe] * n
    if n == 0:
        return ins, outs
    worklist = deque(_seed_order(cfg, "backward", order))
    queued = [True] * n
    iterations = 0
    while worklist:
        pc = worklist.popleft()
        queued[pc] = False
        iterations += 1
        if not cfg.succs[pc]:
            out = boundary
        else:
            out = universe
            for succ in cfg.succs[pc]:
                out = out & ins[succ]
        gen, kill = gen_kill(pc)
        new_in = gen | (out - kill)
        outs[pc] = out
        if new_in != ins[pc]:
            ins[pc] = new_in
            for pred in cfg.preds[pc]:
                if not queued[pred]:
                    queued[pred] = True
                    worklist.append(pred)
    stats._record(iterations)
    return ins, outs
