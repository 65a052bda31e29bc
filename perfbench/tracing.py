"""In-memory spans recorded around calls into lejadet's layers.

A span is one timed call: its name, start and end (``time.perf_counter``
seconds), the index of the span that was open when it started, and the id
of the estimate it belongs to.  Spans are appended to a list and written
out once the run ends, so recording costs two clock reads and one append.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    estimate: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans; ``estimate`` tags every span opened under it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.estimate: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent,
                               self.estimate))
        self._open.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, name: str, func, on_result=None):
        """``func`` with every call recorded as a span called ``name``.

        ``on_result(result)`` runs after the span closes, outside its
        interval, so per-call counters do not inflate the layer's time.
        """
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "estimate": s.estimate} for s in self.spans]


@contextmanager
def patched(module, replacements: dict):
    """Temporarily replace attributes of ``module`` (restored on exit)."""
    saved = {name: getattr(module, name) for name in replacements}
    try:
        for name, value in replacements.items():
            setattr(module, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one parent run one after another (the estimators are
    sequential), so their durations do not overlap and can be summed.
    """
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def totals_by_name(spans: list[Span], values: list[float],
                   estimates: set[int] | None = None) -> dict[str, float]:
    """Sum ``values`` per span name, optionally over the given estimate ids."""
    out: dict[str, float] = {}
    for s, v in zip(spans, values):
        if estimates is None or s.estimate in estimates:
            out[s.name] = out.get(s.name, 0.0) + v
    return out
