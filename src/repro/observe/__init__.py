"""Lightweight metrics and tracing for the prediction pipeline.

The paper's framework is an *online* monitor: it lives next to a
production system and must prove that rule matching stays far below the
event inter-arrival time (Table 5) while retraining runs off the
critical path.  This package provides the measurement substrate for
those claims — a process-local :class:`MetricsRegistry` holding named
:class:`Counter`/:class:`Gauge`/:class:`Histogram` instruments, a
``span()``/``timer()`` context-manager API that records wall-clock
durations into histograms, and JSON export for benchmark artifacts.

Hot paths record through the *current* registry (a module-level default,
swappable with :func:`set_registry` or scoped with :func:`use_registry`)
so instrumentation needs no constructor plumbing::

    from repro import observe

    with observe.span("meta.train") as sp:
        output = meta.train(log, window)
    print(sp.seconds)

    observe.counter("online.events").inc()
    observe.counter("service.events", shard="R01-M0").inc()  # labeled series
    print(observe.get_registry().to_json(indent=2))

A lookup by name costs a label sort and a dict probe, and a
:class:`Span` is an allocation, which is a real share of a
microsecond-scale event.  So per-event hot paths follow one rule: look
each instrument up once per registry (keep it, and look again only
when :func:`get_registry` returns a different registry) and record
once per batch, not once per event.  Kept that way, instruments are
safe to leave on in production.  A fresh registry starts empty and
:meth:`MetricsRegistry.snapshot` renders everything recorded since.
"""

from repro.observe.metrics import Counter, Gauge, Histogram
from repro.observe.registry import (
    MetricsRegistry,
    Span,
    counter,
    gauge,
    get_registry,
    histogram,
    labels_key,
    render_name,
    set_registry,
    span,
    timer,
    use_registry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "counter",
    "gauge",
    "get_registry",
    "histogram",
    "labels_key",
    "render_name",
    "set_registry",
    "span",
    "timer",
    "use_registry",
]
