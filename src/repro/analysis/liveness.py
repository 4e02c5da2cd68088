"""Liveness analysis for local (reference) variables (§5.1, §5.3).

"Identifying program locations where a reference has no future use,
i.e., it is set before being used on every execution path. This
information can be passed to GC, as done in Agesen et al., so that the
root set is reduced at runtime. Alternatively, the program can be
transformed to assign null to dead references."

The analysis runs per method on the bytecode CFG (Agesen-style
method-at-a-time granularity, §5.3). Both consumers are implemented:

* :func:`null_insertion_candidates` feeds the assign-null transformation
  (and the linter's droppable-locals report);
* :meth:`LivenessResult.live_slots_at` feeds the liveness-aided GC
  ablation (dead locals dropped from the root set).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from repro.analysis.cfg import ControlFlowGraph, build_cfg
from repro.analysis.dataflow import solve
from repro.bytecode.opcodes import Op
from repro.bytecode.program import CompiledMethod


class LivenessResult:
    """Live slot sets before/after every instruction of one method."""

    def __init__(self, method: CompiledMethod, cfg: ControlFlowGraph,
                 live_in: List[FrozenSet[int]], live_out: List[FrozenSet[int]]) -> None:
        self.method = method
        self.cfg = cfg
        self.live_in = live_in
        self.live_out = live_out

    def live_slots_at(self, pc: int) -> FrozenSet[int]:
        """Slots live immediately before executing ``pc``."""
        if 0 <= pc < len(self.live_in):
            return self.live_in[pc]
        return frozenset()

    def dead_after(self, pc: int, slot: int) -> bool:
        """Is ``slot`` dead immediately after ``pc`` executes?"""
        return slot not in self.live_out[pc]

    def last_use_points(self, slot: int) -> List[int]:
        """PCs that read ``slot`` while it is dead afterwards — the
        points where "a reference becomes no longer used"."""
        out = []
        for pc, instr in enumerate(self.method.code):
            if instr.op == Op.LOAD and instr.args[0] == slot:
                if slot not in self.live_out[pc]:
                    out.append(pc)
        return out

    def is_ref_slot(self, slot: int) -> bool:
        return self.method.slot_types[slot] == "ref"


def _gen_kill_factory(method: CompiledMethod, cfg: ControlFlowGraph):
    def gen_kill(pc: int) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        instr = method.code[pc]
        if instr.op == Op.LOAD:
            return frozenset((instr.args[0],)), frozenset()
        if instr.op == Op.STORE:
            return frozenset(), frozenset((instr.args[0],))
        return frozenset(), frozenset()

    return gen_kill


def liveness(
    method: CompiledMethod,
    cfg: Optional[ControlFlowGraph] = None,
    order: str = "rpo",
) -> LivenessResult:
    """Compute live local slots for one method. ``order`` selects the
    worklist seeding (see :mod:`repro.analysis.dataflow`); the fixpoint
    is identical either way."""
    cfg = cfg or build_cfg(method)
    live_in, live_out = solve(cfg, _gen_kill_factory(method, cfg), "backward", order=order)
    # Note: a catch handler's exception slot is written via the
    # exception table (not a STORE), so its liveness leaks conservatively
    # into the protected region. That is safe for both consumers: the
    # assign-null transform never targets catch slots, and for GC-root
    # filtering over-approximating liveness is always sound.
    return LivenessResult(method, cfg, live_in, live_out)


def null_insertion_blocker(method: CompiledMethod, var_name: str, line: int) -> Optional[str]:
    """Why ``var_name = null`` may not go after the statement at
    ``line``, or None when liveness proves it safe: no later program
    point may rely on the slot.

    The insertion point is "after the statement at ``line``": every
    control-flow successor that leaves that line must find the slot
    dead. This is robust to loops (a back edge to an earlier line is
    still a successor and is checked).
    """
    try:
        slot = method.slot_names.index(var_name)
    except ValueError:
        return f"no local {var_name} in {method.qualified_name}"
    if method.slot_types[slot] != "ref":
        return f"{var_name} is not a reference variable"
    stmt_pcs = [pc for pc, instr in enumerate(method.code) if instr.line == line]
    if not stmt_pcs:
        return f"line {line} has no code in {method.qualified_name}"
    live = liveness(method)
    on_line = set(stmt_pcs)
    for pc in stmt_pcs:
        for succ in live.cfg.succs[pc]:
            if succ not in on_line and slot in live.live_in[succ]:
                return (
                    f"{var_name} is still live after line {line} "
                    f"(at pc {succ}, line {method.code[succ].line}); "
                    "assigning null would change semantics"
                )
    return None


def null_insertion_candidates(method: CompiledMethod, var_name: str) -> List[int]:
    """Lines after which ``var_name = null`` would be liveness-safe,
    earliest first.

    For a variable whose last read sits inside a loop there is no
    single "last use instruction" (the backward analysis keeps it live
    around the back edge); the death happens on the loop-exit edge, so
    the safe insertion point is after the enclosing loop statement —
    which this sweep finds naturally.
    """
    try:
        slot = method.slot_names.index(var_name)
    except ValueError:
        return []
    if method.slot_types[slot] != "ref":
        return []
    load_lines = [
        instr.line
        for instr in method.code
        if instr.op == Op.LOAD and instr.args == (slot,)
    ]
    if not load_lines:
        return []
    first_load = min(load_lines)
    candidates = sorted({instr.line for instr in method.code if instr.line >= first_load})
    return [
        line for line in candidates
        if null_insertion_blocker(method, var_name, line) is None
    ]
