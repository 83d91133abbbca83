"""In-memory span tracing of the program's public entry points.

The benchmark never edits the program.  A traced run instead replaces a
handful of public functions and methods with thin wrappers, for the
duration of a ``with tracer.installed():`` block, and restores them on
exit.  Each call records one span: (id, name, start, end, parent,
request id, info).  The parent is the innermost traced call still open
on the same thread, so a journal append made inside a fleet commit is
that commit's child.

Spans stay in memory while the run measures and are written out once,
when it ends (:meth:`Tracer.write`).
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int
    rid: Any = None
    info: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _len(_args: tuple, result: Any) -> int:
    return len(result)


def _batch(args: tuple, _result: Any) -> list:
    return args[1]


def _batch_len(args: tuple, _result: Any) -> int:
    return len(args[1])


def _revision(_args: tuple, result: Any) -> tuple[int, int]:
    return len(result.kept), len(result.removed)


def _ingest_seq(_args: tuple, result: Any) -> Any:
    if isinstance(result, dict) and result.get("type") == "ingest":
        return result.get("seq")
    return None


#: (module, attribute path, span name, info-of-call, request-id-of-call).
#: Every entry is a public function or method of the program.
TRACE_POINTS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("repro.raslog.parser", "load_log", "parser.load_log", _len, None),
    ("repro.preprocess.categorizer", "Categorizer.categorize",
     "preprocess.categorize", None, None),
    # pipeline.run calls these through its own module globals.
    ("repro.preprocess.pipeline", "deduplicate_exact",
     "preprocess.dedup", None, None),
    ("repro.preprocess.pipeline", "compress", "preprocess.compress", None, None),
    ("repro.core.framework", "DynamicMetaLearningFramework.run",
     "framework.run", None, None),
    ("repro.core.meta", "MetaLearner.train", "meta.train", None, None),
    ("repro.core.reviser", "Reviser.revise", "reviser.revise", _revision, None),
    ("repro.core.predictor", "Predictor.feed", "predictor.feed", _len, None),
    ("repro.adapt.policy", "DriftMonitor.observe_event", "adapt.observe",
     None, None),
    ("repro.service.service", "PredictionService.ingest_batch",
     "service.commit", _batch, None),
    ("repro.service.backends", "ShardHandle.ingest_batch_begin",
     "backend.begin", None, None),
    ("repro.service.backends", "ShardHandle.ingest_batch_finish",
     "backend.finish", None, None),
    ("repro.resilience.journal", "EventJournal.append_batch",
     "journal.append_batch", _batch_len, None),
    ("repro.resilience.journal", "EventJournal.sync", "journal.sync",
     None, None),
    ("repro.net.protocol", "decode_frame", "net.decode", None, _ingest_seq),
)


class Tracer:
    """Collect spans from wrapped entry points; see the module docs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        info: Callable | None = None,
        rid: Callable | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped to record one span per call."""
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append(Span(
                sid, name, start, end, parent,
                rid(args, result) if rid is not None else None,
                info(args, result) if info is not None else None,
            ))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(
        self, points: Iterable[tuple] = TRACE_POINTS
    ) -> Iterator["Tracer"]:
        """Patch every trace point for the block; always restores them."""
        undo: list[tuple[object, str, Any]] = []
        try:
            for module_name, path, name, info, rid in points:
                owner: Any = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, info, rid))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sid\tname\tstart\tend\tparent\trid\n")
            for s in self.spans:
                rid = "" if s.rid is None else s.rid
                fh.write(
                    f"{s.sid}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t"
                    f"{s.parent}\t{rid}\n"
                )


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    part of its interval that its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.start, s.end))
    totals: dict[str, float] = {}
    for s in spans:
        kids = children.get(s.sid)
        own = s.seconds - (covered(kids, s.start, s.end) if kids else 0.0)
        totals[s.name] = totals.get(s.name, 0.0) + own
    return totals
