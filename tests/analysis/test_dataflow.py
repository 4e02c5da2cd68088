"""The one dataflow solver: forward (reaching definitions) and
backward (liveness core), may and must, on hand-built and compiled
CFGs."""

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import solve
from repro.bytecode.opcodes import Op
from tests.conftest import compile_app


def method_of(source, class_name, method_name):
    program = compile_app(source, main_class=None)
    return program.classes[class_name].methods[method_name]


def reaching_definitions(method):
    """Classic forward may-analysis: which STORE instructions may have
    produced each slot's current value."""
    cfg = build_cfg(method)
    stores_by_slot = {}
    for pc, instr in enumerate(method.code):
        if instr.op == Op.STORE:
            stores_by_slot.setdefault(instr.args[0], set()).add(pc)

    def gen_kill(pc):
        instr = method.code[pc]
        if instr.op == Op.STORE:
            slot = instr.args[0]
            return frozenset({pc}), frozenset(stores_by_slot[slot] - {pc})
        return frozenset(), frozenset()

    return cfg, solve(cfg, gen_kill, "forward")


def test_reaching_definitions_straight_line():
    method = method_of(
        "class C { int f() { int x = 1; x = 2; return x; } }", "C", "f"
    )
    cfg, (ins, outs) = reaching_definitions(method)
    stores = [pc for pc, i in enumerate(method.code) if i.op == Op.STORE]
    first, second = stores
    # after the second store, only it reaches
    assert second in outs[second]
    assert first not in outs[second]


def test_reaching_definitions_merge_at_join():
    source = """
    class C {
        int f(boolean b) {
            int x = 1;
            if (b) { x = 2; }
            return x;
        }
    }
    """
    method = method_of(source, "C", "f")
    cfg, (ins, outs) = reaching_definitions(method)
    slot_x = method.slot_names.index("x")
    stores = [
        pc for pc, i in enumerate(method.code) if i.op == Op.STORE and i.args == (slot_x,)
    ]
    # at the final load of x, both definitions may reach (the join)
    final_load = max(
        pc for pc, i in enumerate(method.code) if i.op == Op.LOAD and i.args == (slot_x,)
    )
    reaching = ins[final_load] & set(stores)
    assert len(reaching) == 2


def test_reaching_definitions_loop_fixpoint():
    source = """
    class C {
        int f(int n) {
            int x = 0;
            for (int i = 0; i < n; i = i + 1) { x = x + 1; }
            return x;
        }
    }
    """
    method = method_of(source, "C", "f")
    cfg, (ins, outs) = reaching_definitions(method)
    slot_x = method.slot_names.index("x")
    stores = [
        pc for pc, i in enumerate(method.code) if i.op == Op.STORE and i.args == (slot_x,)
    ]
    init, loop = stores
    # inside the loop body both the init and the loop store may reach
    body_load = min(
        pc
        for pc, i in enumerate(method.code)
        if i.op == Op.LOAD and i.args == (slot_x,)
    )
    assert {init, loop} <= ins[body_load] or {init, loop} <= outs[body_load] | ins[body_load]


def test_backward_boundary_applies_at_exits():
    method = method_of("class C { void f() { int x = 1; } }", "C", "f")
    cfg = build_cfg(method)

    def gen_kill(pc):
        return frozenset(), frozenset()

    ins, outs = solve(cfg, gen_kill, "backward", boundary=frozenset({"token"}))
    # with identity transfer, the boundary fact flows everywhere
    assert all("token" in s for s in ins)


def test_forward_entry_fact_flows_through():
    method = method_of("class C { void f() { int x = 1; int y = 2; } }", "C", "f")
    cfg = build_cfg(method)

    def gen_kill(pc):
        return frozenset(), frozenset()

    ins, outs = solve(cfg, gen_kill, "forward", boundary=frozenset({"seed"}))
    assert "seed" in outs[len(method.code) - 1] or "seed" in ins[len(method.code) - 1]


def test_empty_method_handled():
    method = method_of("class C { native void f(); }", "C", "f")
    cfg = build_cfg(method)
    for direction in ("forward", "backward"):
        ins, outs = solve(cfg, lambda pc: (frozenset(), frozenset()), direction)
        assert ins == [] and outs == []


# ---------------------------------------------------------------------------
# must-analyses (intersection merge, TOP initialization)
# ---------------------------------------------------------------------------

from repro.analysis import dataflow
from repro.analysis.liveness import liveness
from repro.benchmarks import get_benchmark
from repro.benchmarks.runner import compile_benchmark


def _definitely_stored(method):
    """gen = {slot} at each STORE: 'slots stored on every path so far'."""
    def gen_kill(pc):
        instr = method.code[pc]
        if instr.op == Op.STORE:
            return frozenset({instr.args[0]}), frozenset()
        return frozenset(), frozenset()
    return gen_kill


BRANCHY = """
class C {
    static int f(int x, int y) {
        if (x > 0) { x = 1; y = 5; } else { y = 2; }
        return y;
    }
}
"""
# params are not default-initialized, so stores only happen in the
# branches: y on both paths, x on the then-path only


def _reachable_pcs(cfg):
    seen = {0}
    stack = [0]
    while stack:
        pc = stack.pop()
        for succ in cfg.succs[pc]:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def test_forward_must_intersects_at_join():
    method = method_of(BRANCHY, "C", "f")
    cfg = build_cfg(method)
    slots = frozenset(range(method.nlocals))
    slot_x, slot_y = 0, 1

    may_ins, may_outs = solve(cfg, _definitely_stored(method), "forward")
    must_ins, must_outs = solve(cfg, _definitely_stored(method), "forward", universe=slots)

    exit_pc = cfg.exits[0]
    # y is stored on both branches: definitely stored at the exit
    assert slot_y in must_outs[exit_pc]
    # x is stored on only one path: may, but not must
    assert slot_x in may_outs[exit_pc]
    assert slot_x not in must_outs[exit_pc]
    # must is a refinement of may on reachable code (both gen-only here)
    for pc in _reachable_pcs(cfg):
        assert must_outs[pc] <= may_outs[pc]


def test_forward_must_top_initialization_shrinks_only():
    method = method_of(BRANCHY, "C", "f")
    cfg = build_cfg(method)
    universe = frozenset(range(method.nlocals)) | {"sentinel"}
    _, outs = solve(cfg, _definitely_stored(method), "forward", universe=universe)
    # nothing ever gens the sentinel, so the greatest fixpoint drops it
    # from every reachable pc; unreachable code keeps TOP (vacuous)
    reachable = _reachable_pcs(cfg)
    for pc in range(len(method.code)):
        if pc in reachable:
            assert "sentinel" not in outs[pc]
        else:
            assert "sentinel" in outs[pc]


def test_backward_must_requires_all_paths_to_exit():
    method = method_of(BRANCHY, "C", "f")
    cfg = build_cfg(method)
    slots = frozenset(range(method.nlocals))
    slot_x, slot_y = 0, 1

    may_ins, _ = solve(cfg, _definitely_stored(method), "backward")
    must_ins, _ = solve(cfg, _definitely_stored(method), "backward", universe=slots)

    # from the entry, every path stores y but only the then-path stores x
    assert slot_y in must_ins[0]
    assert slot_x in may_ins[0]
    assert slot_x not in must_ins[0]
    # must refines may here too: every pc reaches the exit
    for pc in range(len(method.code)):
        assert must_ins[pc] <= may_ins[pc]


def test_must_empty_method_handled():
    method = method_of("class C { native void f(); }", "C", "f")
    cfg = build_cfg(method)
    for direction in ("forward", "backward"):
        ins, outs = solve(cfg, lambda pc: (frozenset(), frozenset()), direction,
                          universe=frozenset({"u"}))
        assert ins == [] and outs == []


# ---------------------------------------------------------------------------
# worklist seeding: same fixpoint, fewer iterations
# ---------------------------------------------------------------------------

LOOPY = """
class C {
    static int sum(int n) {
        int s = 0;
        int i = 0;
        while (i < n) {
            int j = 0;
            while (j < i) {
                s = s + j;
                j = j + 1;
            }
            i = i + 1;
        }
        return s;
    }
}
"""


def test_rpo_seeding_matches_linear_fixpoint_with_fewer_iterations():
    method = method_of(LOOPY, "C", "sum")
    cfg = build_cfg(method)
    gen_kill = _definitely_stored(method)

    results = {}
    iteration_counts = {}
    for order in ("rpo", "linear"):
        dataflow.stats.reset()
        slots = frozenset(range(method.nlocals))
        results[order] = tuple(
            solve(cfg, gen_kill, direction, universe=universe, order=order)
            for direction in ("forward", "backward")
            for universe in (None, slots)
        )
        iteration_counts[order] = dataflow.stats.total_iterations

    assert results["rpo"] == results["linear"]  # unique fixpoint
    assert iteration_counts["rpo"] < iteration_counts["linear"]

    # Over the ref-liveness of every method of real programs: the same
    # fixpoints, and never more iterations in total.
    for name in ("db", "euler", "jess"):
        program = compile_benchmark(get_benchmark(name), revised=False)
        methods = [
            method
            for cls in program.classes.values()
            for method in [*cls.methods.values(), cls.ctor, cls.clinit]
            if method is not None and not method.is_native and method.code
        ]
        for order in ("rpo", "linear"):
            dataflow.stats.reset()
            results[order] = [
                (live.live_in, live.live_out)
                for live in (liveness(method, cfg=build_cfg(method), order=order)
                             for method in methods)
            ]
            iteration_counts[order] = dataflow.stats.total_iterations
        assert results["rpo"] == results["linear"], name
        assert iteration_counts["rpo"] <= iteration_counts["linear"], name


def test_solver_stats_track_last_and_total():
    method = method_of(LOOPY, "C", "sum")
    cfg = build_cfg(method)
    dataflow.stats.reset()
    solve(cfg, lambda pc: (frozenset(), frozenset()), "forward")
    first = dataflow.stats.last_iterations
    assert first >= len(method.code)
    solve(cfg, lambda pc: (frozenset(), frozenset()), "backward")
    assert dataflow.stats.total_iterations == first + dataflow.stats.last_iterations
