"""Metric registry, span timing, labels, and the swappable process default.

A :class:`MetricsRegistry` is a namespace of instruments created on
first use (``registry.counter("online.events")``).  Instruments may
carry **labels** — ``registry.counter("service.events", shard="R01")``
— which create one independent time series per label set under the same
metric name, rendered Prometheus-style as
``service.events{shard="R01"}``.  Unlabeled instruments keep their bare
name, so snapshots of label-free workloads are byte-identical to the
pre-label format (backward-compatible flat snapshots).

Durations are recorded with :meth:`MetricsRegistry.span` — a re-usable
context manager that feeds a histogram of the same name and exposes
``.seconds`` for callers that also need the value (e.g. to fill
``RetrainEvent`` fields).

Snapshots are deterministic: series are ordered by metric name, then by
sorted label set, so two runs of the same workload export identical
JSON and benchmark diffs stay stable.

Instrumented library code records through :func:`get_registry`, the
current process-wide default; entry points that want an isolated view
(the ``repro metrics`` subcommand, the benchmark harness) install a
fresh registry with :func:`use_registry` around the measured work.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.observe.metrics import Counter, Gauge, Histogram

#: Canonical, hashable form of a label set: sorted (key, value) pairs.
LabelSet = tuple[tuple[str, str], ...]


def labels_key(labels: dict[str, object]) -> LabelSet:
    """Canonicalize ``labels``: values stringified, keys sorted."""
    for key in labels:
        if not key:
            raise ValueError("label names must be non-empty")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def render_name(name: str, labels: LabelSet = ()) -> str:
    """Rendered series name: ``name`` or ``name{k="v",...}``."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Span:
    """Times one ``with`` block and records it into a histogram."""

    __slots__ = ("name", "seconds", "_histogram", "_start")

    def __init__(self, name: str, histogram: Histogram) -> None:
        self.name = name
        self._histogram = histogram
        self._start: float | None = None
        #: duration of the most recent completed block, seconds
        self.seconds = 0.0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._start is not None, "span exited without entering"
        self.seconds = time.perf_counter() - self._start
        self._start = None
        self._histogram.observe(self.seconds)


class MetricsRegistry:
    """Named (and optionally labeled) instruments, created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[
            tuple[str, LabelSet], Counter | Gauge | Histogram
        ] = {}

    def _get_or_create(self, name: str, cls, labels: dict[str, object]):
        key = (name, labels_key(labels) if labels else ())
        # Lock-free fast path for a series that already exists: a dict
        # read is atomic, and a series is never replaced once created.
        instrument = self._instruments.get(key)
        if instrument.__class__ is cls:
            return instrument
        if not name:
            raise ValueError("instrument name must be non-empty")
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(render_name(*key))
                self._instruments[key] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {render_name(*key)!r} is a "
                    f"{type(instrument).__name__}, not a {cls.__name__}"
                )
            return instrument

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create(name, Counter, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get_or_create(name, Gauge, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._get_or_create(name, Histogram, labels)

    def span(self, name: str, **labels: object) -> Span:
        """Context manager timing a block into histogram ``name``."""
        return Span(name, self.histogram(name, **labels))

    #: ``timer`` reads better at call sites that ignore ``.seconds``.
    timer = span

    def _sorted_items(self):
        with self._lock:
            return sorted(self._instruments.items())

    def names(self) -> list[str]:
        """Rendered series names, ordered by (name, label set)."""
        return [render_name(*key) for key, _ in self._sorted_items()]

    def series(
        self, name: str
    ) -> list[tuple[dict[str, str], Counter | Gauge | Histogram]]:
        """All label sets recorded under ``name``, in label-set order."""
        return [
            (dict(labels), inst)
            for (base, labels), inst in self._sorted_items()
            if base == name
        ]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            keys = list(self._instruments)
        return any(
            name == base or name == render_name(base, labels)
            for base, labels in keys
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def snapshot(self) -> dict[str, dict]:
        """All series as a JSON-ready ``{rendered name: summary}`` mapping.

        Deterministically ordered by metric name, then label set.
        Unlabeled instruments keep the flat pre-label summary shape;
        labeled series additionally carry a ``"labels"`` mapping so
        consumers need not parse the rendered name.
        """
        out: dict[str, dict] = {}
        for (base, labels), inst in self._sorted_items():
            summary = inst.snapshot()
            if labels:
                summary["labels"] = dict(labels)
            out[render_name(base, labels)] = summary
        return out

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        """Drop every instrument (a fresh, empty namespace)."""
        with self._lock:
            self._instruments.clear()


_default_registry = MetricsRegistry()
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The registry instrumented library code currently records into."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process default; returns the old one."""
    global _default_registry
    with _registry_lock:
        previous = _default_registry
        _default_registry = registry
        return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope the default registry to a ``with`` block (re-entrant)."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def counter(name: str, **labels: object) -> Counter:
    return get_registry().counter(name, **labels)


def gauge(name: str, **labels: object) -> Gauge:
    return get_registry().gauge(name, **labels)


def histogram(name: str, **labels: object) -> Histogram:
    return get_registry().histogram(name, **labels)


def span(name: str, **labels: object) -> Span:
    return get_registry().span(name, **labels)


def timer(name: str, **labels: object) -> Span:
    return get_registry().timer(name, **labels)
