"""Profile-log goldens the analysis goldens do not cover, and the
safepoint paths no registry program reaches.

Every digest here was computed on the profiler as it stood before
allocation contexts were interned, and both engines must reproduce it.
Engine equivalence alone cannot catch a bug in the profiler's own
bookkeeping, because both engines share the profiler.

* db at ``--nesting 1``, ``--nesting 8`` and ``--last-use-depth 3``,
  full rate and ``--sample-bytes 4096 --seed 0`` (the analysis goldens
  pin only the defaults).
* ``tests/fixtures/finalizers.mj``, whose finalizers allocate while a
  deep GC is being taken. The byte clock crosses the next sample
  threshold during the sample, which must then fall due again at the
  first boundary after it.
* The same fixture under the generational collector, where a minor
  collection and a sample fall due at the same boundary.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro import cli
from repro.benchmarks.registry import get_benchmark
from repro.core.profiler import HeapProfiler
from repro.mjava.compiler import compile_program
from repro.runtime.engine import create_vm
from repro.runtime.generational import GenerationalCollector
from repro.runtime.library import link
from repro.stream.sinks import LogWriterSink, open_log_writer

ENGINES = ("baseline", "compiled")
SAMPLED = ["--sample-bytes", "4096", "--seed", "0"]
FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "finalizers.mj"

DB_CONFIGS = {
    "nesting1": ["--nesting", "1"],
    "nesting8": ["--nesting", "8"],
    "last_use_depth3": ["--last-use-depth", "3"],
}

# db's allocation chains are at most four frames deep, so its
# ``--nesting 8`` logs equal the default ``--nesting 4`` ones.
DB_GOLDENS = {
    ("nesting1", "full"):
        "59d58ddebb4345a024488d676183a6541c11f13456ad4785e5f1c40a10b9be0f",
    ("nesting1", "sampled"):
        "1f4da6db5b98a7f731e4119dc1c885f7873d51dad54ae3bfeae77719814a6a65",
    ("nesting8", "full"):
        "409671f50a6bbf28265cf1c7ebd1ded17aa7b4038fabb2abfa3bab9704f4a897",
    ("nesting8", "sampled"):
        "314c099a9d2a0c5ea82eadc89619ca4263e800e9fcf05b42747a372ed228328c",
    ("last_use_depth3", "full"):
        "1d8abc704a37c494516af7ab665a9ddacadec13623fd2ca324538f84f4adf122",
    ("last_use_depth3", "sampled"):
        "5ec6331179689bebcc04a47f39cc2c9ef2c17181fd1cae1f1438d906dcbdb730",
}

# Profiler keyword arguments of each finalizer-fixture configuration.
FIXTURE_CONFIGS = {
    "full": {},
    "sampled": {"sample_bytes": 4096, "seed": 0},
    "last_use_depth3": {"last_use_depth": 3},
}

FIXTURE_GOLDENS = {
    "full": "ffe30cd0f9a603bd6980d256fb154627ed28cf541a1ff1b37fc009c0cf273526",
    "sampled": "07a7baf6d075aa354952288006373efc3dedd2815f96825492c068bfe6b6229d",
    "last_use_depth3":
        "832cbdbb984abb4cc09219654c68d3f63ac81bf3baa783c26734c34f5656c831",
}
FIXTURE_DEEP_GCS = 134
GENERATIONAL_GOLDEN = (
    "bc9a5812909b2b252636ad7633176ea563faa980aec051a60ac9bf6c03139ecf"
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def db_source(tmp_path_factory):
    path = tmp_path_factory.mktemp("db") / "db.mj"
    path.write_text(get_benchmark("db").original, encoding="utf-8")
    return path


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("config,rate", sorted(DB_GOLDENS))
def test_db_log_matches_golden(tmp_path, db_source, engine, config, rate):
    bench = get_benchmark("db")
    log = tmp_path / "db.dlog2"
    argv = (["profile", str(db_source), "--main", bench.main_class,
             "--interval", str(bench.interval_bytes), "--sink", "stream",
             "--log", str(log), "--engine", engine]
            + DB_CONFIGS[config] + (SAMPLED if rate == "sampled" else [])
            + list(bench.primary_args))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    assert _sha(log.read_bytes()) == DB_GOLDENS[config, rate]


def _fixture_vm(path, engine, collector_factory=None, **kwargs):
    """A VM that profiles the finalizer fixture into a v2 log at
    ``path``, and the sink to close after its run."""
    program = compile_program(
        link(FIXTURE.read_text(encoding="utf-8")), main_class="Main"
    )
    sink = LogWriterSink(open_log_writer(path, fmt="v2"))
    profiler = HeapProfiler(interval_bytes=2048, sink=sink, **kwargs)
    vm = create_vm(program, engine=engine, profiler=profiler,
                   collector_factory=collector_factory)
    return vm, sink


def _run(vm, sink):
    try:
        result = vm.run(["400"])
    finally:
        sink.close()
    assert result.stdout == ["made 400"]
    return result


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("config", sorted(FIXTURE_CONFIGS))
def test_allocating_finalizers_match_golden(tmp_path, engine, config):
    log = tmp_path / "finalizers.dlog2"
    result = _run(*_fixture_vm(log, engine, **FIXTURE_CONFIGS[config]))
    assert result.heap_stats.finalizers_run == 400
    assert result.heap_stats.deep_gc_runs == FIXTURE_DEEP_GCS
    assert _sha(log.read_bytes()) == FIXTURE_GOLDENS[config]


def test_minor_collection_and_sample_due_at_one_boundary(tmp_path):
    """With a small young generation, an allocation that crosses the
    sample threshold can also make a minor collection due. The sample
    starts first, and the minor collection runs before any further
    instruction: at the first boundary inside the sample's finalizers,
    or right after the sample when none ran. Both engines agree."""

    def young(heap, program):
        return GenerationalCollector(heap, program, young_threshold=512)

    logs = {}
    events = []
    for engine in ENGINES:
        logs[engine] = tmp_path / f"{engine}.dlog2"
        vm, sink = _fixture_vm(logs[engine], engine, collector_factory=young)
        if engine == "baseline":
            # The baseline engine counts instructions as it goes, so the
            # count tells which boundary an event was serviced at.
            collect_minor = vm.collector.collect_minor
            take_sample = vm.profiler.take_sample

            def minor(roots, vm=vm, collect_minor=collect_minor):
                events.append(("minor", vm.instr_count))
                return collect_minor(roots)

            def sample(interp, take_sample=take_sample):
                events.append(("sample", interp.instr_count))
                take_sample(interp)

            vm.collector.collect_minor = minor
            vm.profiler.take_sample = sample
        result = _run(vm, sink)
        assert result.heap_stats.minor_gc_runs > 0
    shared = [
        count for (kind, count), (next_kind, next_count) in zip(events, events[1:])
        if kind == "sample" and next_kind == "minor" and next_count == count
    ]
    assert shared, "no boundary had a sample and a minor collection due"
    assert logs["baseline"].read_bytes() == logs["compiled"].read_bytes()
    assert _sha(logs["compiled"].read_bytes()) == GENERATIONAL_GOLDEN
