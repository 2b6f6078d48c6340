"""In-memory spans around calls into ixpgraph's public functions.

A ``Tracer`` records one span per call: name, start, end, parent and a
few counts. ``patched`` replaces module attributes with recording
wrappers while a block runs and puts the originals back afterwards, so
nested calls (``ingest.sanitize`` -> ``model.giant_component``) get their
own spans and a span's self time is its duration minus its children's.
Nothing is written until the caller asks for ``records()``.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.counter_errors: list[str] = []

    @contextmanager
    def span(self, name: str):
        record = Span(name, 0.0, parent=self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(record)
        record.start = perf_counter()
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "self_s": self_s, **({"counts": s.counts} if s.counts else {})}
            for s, self_s in zip(self.spans, self.self_times())
        ]

    def wrap(self, func: Callable, name: str, namer=None, counter=None) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(namer(args, kwargs) if namer else name) as record:
                result = func(*args, **kwargs)
            if counter is not None:
                # Counts come from the program's return values; a program
                # whose types changed must not stop the run.
                try:
                    record.counts = counter(result, args, kwargs)
                except (AttributeError, KeyError, TypeError, IndexError) as exc:
                    self.counter_errors.append(f"{record.name}: {exc!r}")
            return result
        return traced


@contextmanager
def patched(tracer: Tracer, targets: list[tuple]):
    """Wrap ``module.attr`` for each (module, attr, namer, counter) target.

    Targets the program no longer has are skipped and reported in the
    returned list, so the benchmark keeps working when a function goes.
    """
    restore = []
    missing = []
    try:
        for module_name, attr, namer, counter in targets:
            module = importlib.import_module(f"ixpgraph.{module_name}")
            func = getattr(module, attr, None)
            if func is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, tracer.wrap(func, f"{module_name}.{attr}", namer, counter))
            restore.append((module, attr, func))
        yield missing
    finally:
        for module, attr, func in reversed(restore):
            setattr(module, attr, func)
