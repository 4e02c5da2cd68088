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
* snapshot capture adds at most a per-version budget of calls to a
  profiled db run per deep GC;
* the heap rules DRAG006/DRAG007 add at most a per-program share to
  the lint's calls, below what a second heap analysis adds;
* the lint does the same work whatever the hash seed.

Opcode and call counts differ between Python versions; the ratios hold
on 3.9, 3.11 and 3.12, and the opcode and capture budgets are kept per
minor version.
"""

import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

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
ROOT = Path(__file__).resolve().parent.parent
ARGS = {"db": ["30", "60"], "euler": ["6", "10"]}
BASELINE_RULES = ["DRAG001", "DRAG002", "DRAG003", "DRAG004", "DRAG005"]
# Compiled-engine Python opcodes per VM instruction at ARGS, measured
# after one warm-up run. A change that lowers a count lowers its budget.
OPCODE_BUDGET = {
    (3, 9): {"db": 53.88, "euler": 21.13},
    (3, 11): {"db": 56.14, "euler": 22.34},
    (3, 12): {"db": 51.41, "euler": 20.51},
}
# Calls a profiled db run makes per logged record beyond a plain run's:
# on_alloc, its trailer, the record and its write (3.67 on 3.9 and 3.11,
# 3.60 on 3.12).
PROFILE_CALLS_PER_RECORD = 3.7
# Calls snapshot capture adds to a profiled db run per deep GC at ARGS
# (six deep GCs, one capture each): 524.7 on 3.9 and 3.11, 523.7 on
# 3.12. A second capture per deep GC doubles that.
CAPTURE_CALLS_PER_DEEP_GC = {(3, 9): 550, (3, 11): 550, (3, 12): 550}
# Full lint calls over the five baseline rules' calls, per program. Both
# counts are the same under every hash seed. Measured on 3.9, 3.11 and
# 3.12: db 1.54-1.56, euler 1.27-1.29, jess 1.49-1.51, cache 1.47-1.49.
# Building the heap liveness analysis a second time reads 2.02-2.07,
# 1.50-1.52, 1.91-1.96 and 1.88-1.92; each bound lies between the two.
HEAP_RULE_RATIO = {"db": 1.65, "euler": 1.35, "jess": 1.6, "cache": 1.55}
# Runs in a fresh interpreter: prints the calls the five baseline rules
# make into repro.lint and repro.analysis on each named program.
SEED_PROBE = """
import json, sys
from tests.test_work_gates import BASELINE_RULES, calls_per_layer, lint_run
counts = {name: calls_per_layer(lint_run(name, BASELINE_RULES)) for name in sys.argv[1:]}
print(json.dumps({name: [c["lint"], c["analysis"]] for name, c in counts.items()}))
"""


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


def lint_run(name, rules):
    bench = get_benchmark(name)

    def prepare():
        program = link(bench.original)
        return lambda: lint_program(program, bench.main_class, rules=rules)

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


def test_snapshot_capture_adds_a_budgeted_number_of_calls_per_deep_gc():
    budget = CAPTURE_CALLS_PER_DEEP_GC.get(sys.version_info[:2])
    if budget is None:
        pytest.skip("no capture budget measured for this Python version")
    prepare = profiled_run("db")
    results = []

    def keep():
        run = prepare()
        return lambda: results.append(run())

    plain = sum(calls_per_layer(keep).values())
    deep_gcs = len(results[-1].samples)
    captured = calls_per_layer(profiled_run("db", snapshotter=SnapshotRecorder()))
    assert captured["snapshot"] > 0
    per_deep_gc = (sum(captured.values()) - plain) / deep_gcs
    assert per_deep_gc <= budget, (per_deep_gc, budget)


@pytest.mark.parametrize("name", sorted(HEAP_RULE_RATIO))
def test_heap_rules_at_most_double_the_lint_calls(name):
    baseline = sum(calls_per_layer(lint_run(name, BASELINE_RULES)).values())
    full = sum(calls_per_layer(
        lint_run(name, BASELINE_RULES + ["DRAG006", "DRAG007"])).values())
    assert full <= HEAP_RULE_RATIO[name] * baseline, (full, baseline)


def test_lint_work_does_not_depend_on_the_hash_seed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(PACKAGE).parent), str(ROOT), env.get("PYTHONPATH")) if p
    )
    counts = {}
    for seed in ("1", "7"):
        env["PYTHONHASHSEED"] = seed
        out = subprocess.run(
            [sys.executable, "-c", SEED_PROBE, "cache", "db"],
            env=env, cwd=ROOT, check=True, capture_output=True, text=True, timeout=300,
        ).stdout
        counts[seed] = json.loads(out)
    assert counts["1"] == counts["7"], counts
