"""Labeled instruments with Prometheus exposition and JSON snapshots.

A :class:`MetricsRegistry` holds :class:`Counter`, :class:`Gauge`, and
:class:`Histogram` instruments, each optionally labeled. The registry
is get-or-create keyed by metric name, so any layer can say
``registry.counter("repro_gc_cycles_total", ...)`` and the GC, the
profiler, and the CLI all land on the same time series.

Two export shapes, both deterministic (sorted by metric name, then by
label values) so repeated snapshots of the same state are byte-equal:

* :meth:`MetricsRegistry.exposition` — the Prometheus text format
  (``# HELP`` / ``# TYPE`` / sample lines), what ``--metrics-out``
  writes;
* :meth:`MetricsRegistry.snapshot` — a plain JSON-able dict, what the
  live ``--metrics-json`` path and tests consume.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError


class MetricsError(ReproError):
    """Instrument misuse: type conflict, bad labels."""


DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _format_value(value: float) -> str:
    """Prometheus-style numbers: integers without a trailing ``.0``."""
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_suffix(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class _Instrument:
    """Shared labeling machinery; one child per label-value tuple."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str]) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], "_Instrument"] = {}

    def labels(self, *values, **kwvalues) -> "_Instrument":
        if kwvalues:
            if values:
                raise MetricsError(f"{self.name}: mix of positional and keyword labels")
            try:
                values = tuple(str(kwvalues[name]) for name in self.labelnames)
            except KeyError as exc:
                raise MetricsError(f"{self.name}: missing label {exc}") from exc
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise MetricsError(
                f"{self.name}: expected labels {list(self.labelnames)}, got {list(values)}"
            )
        child = self._children.get(values)
        if child is None:
            child = self._make_child()
            self._children[values] = child
        return child

    def _make_child(self) -> "_Instrument":
        return type(self)(self.name, self.help, ())

    def _iter_series(self):
        """(labelvalues, child) pairs in sorted label order; the bare
        instrument itself when unlabeled."""
        if self.labelnames:
            for values in sorted(self._children):
                yield values, self._children[values]
        else:
            yield (), self

    # Subclasses: samples() -> [(name_suffix, extra_label_suffix, value)]

    def samples(self) -> List[Tuple[str, str, float]]:
        raise NotImplementedError

    def to_dict(self):
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name, help_text="", labelnames=()) -> None:
        super().__init__(name, help_text, labelnames)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(f"{self.name}: counters cannot decrease")
        self.value += amount

    def samples(self):
        return [("", "", self.value)]

    def to_dict(self):
        return self.value


class Gauge(_Instrument):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name, help_text="", labelnames=()) -> None:
        super().__init__(name, help_text, labelnames)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def samples(self):
        return [("", "", self.value)]

    def to_dict(self):
        return self.value


class Histogram(_Instrument):
    """Cumulative-bucket histogram (the Prometheus layout)."""

    kind = "histogram"

    def __init__(self, name, help_text="", labelnames=(), buckets=DEFAULT_BUCKETS) -> None:
        super().__init__(name, help_text, labelnames)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise MetricsError(f"{name}: histogram needs at least one bucket")
        self.bucket_counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def _make_child(self):
        return Histogram(self.name, self.help, (), buckets=self.buckets)

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1

    def samples(self):
        out = []
        # observe() increments every bucket with value <= le, so the
        # stored counts are already cumulative, as the format requires.
        for bound, in_bucket in zip(self.buckets, self.bucket_counts):
            out.append(("_bucket", f'le="{_format_value(float(bound))}"', float(in_bucket)))
        out.append(("_bucket", 'le="+Inf"', float(self.count)))
        out.append(("_sum", "", self.sum))
        out.append(("_count", "", float(self.count)))
        return out

    def to_dict(self):
        return {
            "buckets": {
                _format_value(float(b)): c
                for b, c in zip(self.buckets, self.bucket_counts)
            },
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Get-or-create home for every instrument in one tool invocation."""

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name, help_text, labelnames, **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise MetricsError(
                    f"{name}: already registered as {existing.kind} "
                    f"with labels {list(existing.labelnames)}"
                )
            return existing
        instrument = cls(name, help_text, labelnames, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help_text: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    # -- export ------------------------------------------------------------

    def exposition(self) -> str:
        """Prometheus text format, deterministically ordered."""
        lines: List[str] = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            for labelvalues, child in instrument._iter_series():
                base = _label_suffix(instrument.labelnames, labelvalues)
                for suffix, extra, value in child.samples():
                    if extra and base:
                        label_part = base[:-1] + "," + extra + "}"
                    elif extra:
                        label_part = "{" + extra + "}"
                    else:
                        label_part = base
                    lines.append(f"{name}{suffix}{label_part} {_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_exposition(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.exposition())

    def snapshot(self) -> dict:
        """JSON-able state: {metric: value | {label_tuple_str: value}}."""
        out: dict = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if instrument.labelnames:
                series = {}
                for labelvalues, child in instrument._iter_series():
                    key = ",".join(
                        f"{n}={v}" for n, v in zip(instrument.labelnames, labelvalues)
                    )
                    series[key] = child.to_dict()
                out[name] = series
            else:
                out[name] = instrument.to_dict()
        return out


class DispatchStats:
    """Translation counters the closure compiler bumps once per method,
    and once per fused run it compiles into one function, when
    telemetry is enabled (see :mod:`repro.runtime.dispatch`). No
    handler binds them, so dispatch itself pays nothing."""

    __slots__ = ("methods_translated", "handlers_emitted", "runs_compiled")

    def __init__(self) -> None:
        self.methods_translated = 0
        self.handlers_emitted = 0
        self.runs_compiled = 0
