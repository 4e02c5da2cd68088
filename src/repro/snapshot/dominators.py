"""Immediate dominators and retained sizes over a heap graph.

The algorithm is Cooper–Harvey–Kennedy's iterative scheme ("A Simple,
Fast Dominance Algorithm"): process nodes in reverse postorder,
intersecting the dominator chains of each node's processed
predecessors until a fixpoint. On the near-tree-shaped graphs heap
snapshots produce it converges in one or two sweeps and needs no
auxiliary forest, which is why it wins here over Lengauer–Tarjan.

Retained size of ``v`` (the Memory-Analyzer notion): the bytes that
would become unreachable if ``v`` were removed — exactly the sum of
sizes over ``v``'s dominator-tree subtree. Because every immediate
dominator precedes its node in reverse postorder, one reverse sweep
accumulates all retained sizes in O(N).

``tests/snapshot/test_dominators.py`` pins both against the definition
directly: a naive remove-node-and-recount reachability oracle on
randomized graphs.

The static analyses share this module: :func:`reverse_postorder` is the
one DFS order (dataflow worklist seeding, call-graph fixpoint seeding)
and :func:`immediate_dominators` with :func:`dominates` the one
dominator routine (heap liveness's DRAG007 placement). It imports
nothing from ``repro.analysis``, so the log readers can load it alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def reverse_postorder(succ: Sequence[Sequence[int]], root: int = 0) -> List[int]:
    """RPO over the nodes reachable from ``root`` (iterative DFS)."""
    n = len(succ)
    visited = [False] * n
    post: List[int] = []
    # Each stack entry is (node, iterator position) — explicit so deep
    # heap chains (linked lists) don't hit the recursion limit.
    stack: List[List[int]] = [[root, 0]]
    visited[root] = True
    while stack:
        node, i = stack[-1]
        if i < len(succ[node]):
            stack[-1][1] += 1
            child = succ[node][i]
            if not visited[child]:
                visited[child] = True
                stack.append([child, 0])
        else:
            stack.pop()
            post.append(node)
    post.reverse()
    return post


def immediate_dominators(
    succ: Sequence[Sequence[int]], root: int = 0
) -> List[Optional[int]]:
    """``idom[v]`` for every node; ``idom[root] == root``; unreachable
    nodes get ``None``."""
    n = len(succ)
    order = reverse_postorder(succ, root)
    index: Dict[int, int] = {node: i for i, node in enumerate(order)}
    preds: List[List[int]] = [[] for _ in range(n)]
    for src in order:
        for dst in succ[src]:
            if dst in index:
                preds[dst].append(src)
    idom: List[Optional[int]] = [None] * n
    idom[root] = root

    def intersect(a: int, b: int) -> int:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for node in order:
            if node == root:
                continue
            new_idom: Optional[int] = None
            for pred in preds[node]:
                if idom[pred] is None:
                    continue
                new_idom = pred if new_idom is None else intersect(pred, new_idom)
            if new_idom is not None and idom[node] != new_idom:
                idom[node] = new_idom
                changed = True
    return idom


def dominates(idom: Sequence[Optional[int]], a: int, b: int) -> bool:
    """Does ``a`` dominate ``b``? Walks ``b``'s idom chain. A node
    unreachable from the root is dominated by everything (vacuously:
    no path reaches it)."""
    if idom[b] is None:
        return True
    while b != a:
        dom = idom[b]
        if dom == b:
            return False  # passed the root
        b = dom  # type: ignore[assignment]
    return True


def retained_sizes(
    sizes: Sequence[int],
    idom: Sequence[Optional[int]],
    order: Sequence[int],
    root: int = 0,
) -> List[int]:
    """Per-node retained bytes: own size plus everything dominated.

    ``order`` must be the reverse postorder the idoms were computed
    over; sweeping it backwards visits every node before its immediate
    dominator, so each subtree total is final when it is added to its
    parent. Unreachable nodes retain exactly their own size.
    """
    retained = list(sizes)
    for node in reversed(order):
        if node == root:
            continue
        dom = idom[node]
        if dom is not None:
            retained[dom] += retained[node]
    return retained


class DominatorTree:
    """Dominator structure of one heap graph: idoms, children lists,
    retained sizes, and subtree iteration."""

    __slots__ = ("succ", "root", "order", "idom", "retained", "children")

    def __init__(self, succ: Sequence[Sequence[int]], sizes: Sequence[int], root: int = 0) -> None:
        self.succ = succ
        self.root = root
        self.order = reverse_postorder(succ, root)
        self.idom = immediate_dominators(succ, root)
        self.retained = retained_sizes(sizes, self.idom, self.order, root)
        self.children: List[List[int]] = [[] for _ in range(len(succ))]
        for node in self.order:
            if node == self.root:
                continue
            dom = self.idom[node]
            if dom is not None:
                self.children[dom].append(node)

    def reachable(self, node: int) -> bool:
        return self.idom[node] is not None

    def subtree(self, node: int) -> List[int]:
        """``node`` plus everything it dominates (DFS preorder)."""
        out: List[int] = []
        stack = [node]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(reversed(self.children[v]))
        return out

    def dominator_chain(self, node: int) -> List[int]:
        """``node``, its idom, ... up to (and including) the root."""
        chain = [node]
        while node != self.root:
            dom = self.idom[node]
            if dom is None:
                break
            chain.append(dom)
            node = dom
        return chain
