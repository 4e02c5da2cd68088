"""One front door to the VM: engine selection and wiring.

Historically every caller — the CLI, the profiler, the benchmark
harness, the examples — constructed :class:`Interpreter` by hand and
re-did the same wiring (heap limit, collector factory, natives,
liveness roots, profiler attachment). This module centralizes that:

* :class:`VMConfig` — a value object naming the execution engine and
  every wiring knob;
* :func:`create_vm` — build the right interpreter for a config;
* :class:`Engine` — program + config, with :meth:`Engine.run`;
* :func:`run_program` — one-call convenience.

Two engines exist, both producing bit-identical results (enforced by
``tests/runtime/test_engine_equivalence.py``):

* ``baseline`` — the classic if/elif interpreter;
* ``compiled`` — per-method closure translation with profiler hooks
  specialized out when no profiler is attached (see
  :mod:`repro.runtime.dispatch`).

A config that names no engine runs ``DEFAULT_ENGINE`` (``compiled``);
``baseline`` stays the independent reference the equivalence tests
name explicitly.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import VMError
from repro.bytecode.program import CompiledProgram
from repro.runtime.compiled import CompiledInterpreter
from repro.runtime.interpreter import Interpreter, ProgramResult

ENGINES = {
    "baseline": Interpreter,
    "compiled": CompiledInterpreter,
}

DEFAULT_ENGINE = "compiled"


class VMConfig:
    """Everything needed to wire up one VM instance.

    ``engine`` selects the dispatch strategy; the rest are the wiring
    knobs the interpreters accept. A config is reusable across
    programs and runs (each :func:`create_vm` builds a fresh VM), with
    the caveat that an attached ``profiler`` instance belongs to a
    single run.
    """

    __slots__ = (
        "engine",
        "max_heap",
        "profiler",
        "collector_factory",
        "natives",
        "liveness_roots",
        "telemetry",
    )

    def __init__(
        self,
        engine: Optional[str] = None,
        max_heap: Optional[int] = None,
        profiler=None,
        collector_factory=None,
        natives=None,
        liveness_roots: bool = False,
        telemetry=None,
    ) -> None:
        if engine is None:
            engine = DEFAULT_ENGINE
        if engine not in ENGINES:
            raise VMError(
                f"unknown engine {engine!r} (have {sorted(ENGINES)})"
            )
        self.engine = engine
        self.max_heap = max_heap
        self.profiler = profiler
        self.collector_factory = collector_factory
        self.natives = natives
        self.liveness_roots = liveness_roots
        # Optional repro.obs.Telemetry: spans + metrics for GC, dispatch
        # and run totals. None means telemetry call sites are never
        # emitted (the compiled engine specializes them out).
        self.telemetry = telemetry

    def replace(self, **overrides) -> "VMConfig":
        """A copy with some fields replaced."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(overrides)
        return VMConfig(**fields)

    def __repr__(self) -> str:
        return (
            f"<VMConfig engine={self.engine}"
            f"{' profiled' if self.profiler is not None else ''}>"
        )


def create_vm(
    program: CompiledProgram, config: Optional[VMConfig] = None, **overrides
) -> Interpreter:
    """Build a ready-to-run VM for ``program``.

    Accepts a :class:`VMConfig`, keyword overrides, or both (overrides
    win). This is the single construction path the CLI, profiler,
    benchmark harness, and examples all go through.
    """
    if config is None:
        config = VMConfig(**overrides)
    elif overrides:
        config = config.replace(**overrides)
    vm_class = ENGINES[config.engine]
    return vm_class(
        program,
        max_heap=config.max_heap,
        profiler=config.profiler,
        collector_factory=config.collector_factory,
        natives=config.natives,
        liveness_roots=config.liveness_roots,
        telemetry=config.telemetry,
    )


class Engine:
    """A program bound to a VM configuration.

    The facade owns the VM's wiring; callers deal in programs, args,
    and results. The VM is built eagerly (so a profiler in the config
    is attached immediately) and is exposed as :attr:`vm` for callers
    that need heap stats or GC entry points after the run.
    """

    def __init__(
        self,
        program: CompiledProgram,
        config: Optional[VMConfig] = None,
        **overrides,
    ) -> None:
        if config is None:
            config = VMConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.program = program
        self.config = config
        self.vm = create_vm(program, config)

    def run(self, args=None) -> ProgramResult:
        """Run <clinit>s then main(String[]); see Interpreter.run."""
        return self.vm.run(args or [])


def run_program(
    program: CompiledProgram,
    args=None,
    config: Optional[VMConfig] = None,
    **overrides,
) -> ProgramResult:
    """Build a VM and run ``program`` in one call."""
    return Engine(program, config, **overrides).run(args)
