"""Work gates for the mutator and the linter, counted instead of timed.

Each test counts Python work while one run executes, after a warm-up
run of the same work: ``call`` events per ``repro`` subpackage under
``sys.setprofile``, or ``opcode`` events under ``sys.settrace``. Counts
do not depend on the host, so each bound holds exactly where a
one-shot wall-time ratio measured noise:

* the compiled engine executes at least 1.3x fewer Python opcodes per
  VM instruction than the baseline engine, and no more than its
  committed per-version budget;
* a profiled db run makes at most 3.7 calls per logged record more
  than a plain one;
* an attached :class:`~repro.obs.Telemetry` adds no call outside
  ``repro.obs``, and the same few calls into it whatever the program;
* ``--sample-bytes 4096`` makes fewer calls into ``repro.core`` and
  ``repro.runtime`` than a full-rate run;
* snapshot capture adds at most 10% to a profiled db run's calls;
* the heap rules DRAG006/DRAG007 at most double the lint's calls.

Opcode counts differ between Python versions; the ratios hold on 3.9,
3.11 and 3.12, and the opcode budget is kept per minor version.
"""

import gc
import os
import sys
from collections import Counter

import pytest

import repro
from repro.benchmarks import get_benchmark
from repro.benchmarks.runner import compile_benchmark
from repro.core.profiler import profile_program
from repro.lint import lint_program
from repro.obs import Telemetry
from repro.runtime.engine import create_vm
from repro.runtime.library import link
from repro.snapshot import SnapshotRecorder

PACKAGE = os.path.dirname(repro.__file__) + os.sep
ARGS = {"db": ["30", "60"], "euler": ["6", "10"]}
BASELINE_RULES = ["DRAG001", "DRAG002", "DRAG003", "DRAG004", "DRAG005"]
# Compiled-engine Python opcodes per VM instruction at ARGS, measured
# after one warm-up run. A change that lowers a count lowers its budget.
OPCODE_BUDGET = {
    (3, 9): {"db": 61.37, "euler": 32.58},
    (3, 11): {"db": 65.16, "euler": 35.73},
    (3, 12): {"db": 59.04, "euler": 32.04},
}
# Calls a profiled db run makes per logged record beyond a plain run's:
# on_alloc, its trailer, the record and its write (3.67 on 3.9 and 3.11,
# 3.60 on 3.12).
PROFILE_CALLS_PER_RECORD = 3.7


def calls_per_layer(prepare):
    """Calls into each ``repro`` subpackage while ``prepare()()`` runs.
    ``prepare`` builds the run outside the count; one warm-up run goes
    first."""
    prepare()()
    run = prepare()
    counts = Counter()
    layers = {}

    def count(frame, event, arg):
        if event == "call":
            path = frame.f_code.co_filename
            layer = layers.get(path)
            if layer is None:
                inside = path.startswith(PACKAGE)
                layer = layers[path] = path[len(PACKAGE):].split(os.sep)[0] if inside else ""
            counts[layer] += 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    del counts[""]
    return counts


def opcodes_per_instruction(prepare):
    """Python opcodes executed per VM instruction while ``prepare()()``
    runs a program, after one warm-up run."""
    prepare()()
    run = prepare()
    executed = 0

    def per_opcode(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return per_opcode

    def per_frame(frame, event, arg):
        frame.f_trace_opcodes = True
        return per_opcode

    # Python 3.12 turns opcode events on at settrace() only once some
    # frame has asked for them.
    sys._getframe().f_trace_opcodes = True
    # A cyclic collection inside the run would trace the clean-up of
    # garbage that earlier work left, so the count would depend on
    # what ran before in this process.
    gc.collect()
    gc.disable()
    sys.settrace(per_frame)
    try:
        result = run()
    finally:
        sys.settrace(None)
        gc.enable()
    return executed / result.instructions


def vm_run(name, engine="compiled", telemetry=False):
    bench = get_benchmark(name)

    def prepare():
        vm = create_vm(
            compile_benchmark(bench, revised=False),
            engine=engine,
            max_heap=bench.max_heap,
            telemetry=Telemetry() if telemetry else None,
        )
        return lambda: vm.run(list(ARGS[name]))

    return prepare


def profiled_run(name, **options):
    bench = get_benchmark(name)

    def prepare():
        program = compile_benchmark(bench, revised=False)
        return lambda: profile_program(
            program, list(ARGS[name]), interval_bytes=bench.interval_bytes,
            max_heap=bench.max_heap, **options)

    return prepare


@pytest.mark.parametrize("name", ["db", "euler"])
def test_compiled_engine_runs_fewer_opcodes_per_instruction(name):
    baseline = opcodes_per_instruction(vm_run(name, engine="baseline"))
    compiled = opcodes_per_instruction(vm_run(name, engine="compiled"))
    assert baseline >= 1.3 * compiled, (baseline, compiled)


@pytest.mark.parametrize("name", ["db", "euler"])
def test_compiled_engine_stays_within_its_opcode_budget(name):
    budget = OPCODE_BUDGET.get(sys.version_info[:2])
    if budget is None:
        pytest.skip("no opcode budget measured for this Python version")
    compiled = opcodes_per_instruction(vm_run(name, engine="compiled"))
    assert compiled <= budget[name], (compiled, budget[name])


def test_profiling_adds_a_few_calls_per_record():
    plain = sum(calls_per_layer(vm_run("db")).values())
    prepare = profiled_run("db")
    results = []

    def keep():
        run = prepare()
        return lambda: results.append(run())

    profiled = sum(calls_per_layer(keep).values())
    records = results[-1].profiler.record_count
    assert (profiled - plain) / records <= PROFILE_CALLS_PER_RECORD, (
        profiled, plain, records)


def test_telemetry_adds_calls_into_obs_only_and_a_constant_few():
    obs_calls = set()
    for name in ARGS:
        off = calls_per_layer(vm_run(name))
        on = calls_per_layer(vm_run(name, telemetry=True))
        obs_calls.add(on.pop("obs", 0))
        assert on == off, name
    assert len(obs_calls) == 1 and obs_calls.pop() < 100


@pytest.mark.parametrize("name", ["db", "euler"])
def test_sampled_profiling_makes_fewer_mutator_calls(name):
    full = calls_per_layer(profiled_run(name))
    sampled = calls_per_layer(profiled_run(name, sample_bytes=4096, seed=0))
    assert sampled["core"] + sampled["runtime"] < full["core"] + full["runtime"]


def test_snapshot_capture_adds_at_most_a_tenth_of_the_calls():
    plain = sum(calls_per_layer(profiled_run("db")).values())
    captured = calls_per_layer(
        profiled_run("db", snapshotter=SnapshotRecorder()))
    assert captured["snapshot"] > 0
    assert sum(captured.values()) <= 1.10 * plain, (sum(captured.values()), plain)


@pytest.mark.parametrize("name", ["db", "euler", "jess", "cache"])
def test_heap_rules_at_most_double_the_lint_calls(name):
    bench = get_benchmark(name)

    def lint(rules):
        def prepare():
            program = link(bench.original)
            return lambda: lint_program(program, bench.main_class, rules=rules)
        return prepare

    baseline = sum(calls_per_layer(lint(BASELINE_RULES)).values())
    full = sum(calls_per_layer(lint(BASELINE_RULES + ["DRAG006", "DRAG007"])).values())
    assert full <= 2.0 * baseline, (full, baseline)
