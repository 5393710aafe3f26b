"""Spans recorded from outside the program, around the calls into each layer.

A :class:`Tracer` replaces module attributes (functions, or a method on a
class) with wrappers that record one span per call: name, start, end and
the index of the enclosing span. The program looks these names up at call
time, so its own calls are traced without editing it. A name that no
longer exists, say after a refactor, is listed in ``absent`` and its
layer reads 0; tracing never fails the run.

Spans are kept in memory. Self time is a span's duration minus the
durations of its direct children; children nest strictly, so the self
times of a tree sum to its root's duration.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT = range(4)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop recorded spans and counts, keeping the installed wrappers."""
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Trace every call of ``owner.attr`` as span ``name``.

        ``count(tracer, args, result)`` runs after each call to update
        ``counts`` with work done (items scored, iterations run).
        """
        original = getattr(owner, attr, None)
        if original is None:
            missing = f"{getattr(owner, '__name__', owner)}.{attr}"
            if missing not in self.absent:
                self.absent.append(missing)
            return

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[NAME]] += s[END] - s[START] - child[i]
        return out

    def totals(self) -> dict[str, float]:
        """Summed duration per span name (children included)."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s[NAME]] += s[END] - s[START]
        return out

    def gaps(self, first: str, last: str) -> list[float]:
        """Durations from each ``first`` span's start to the end of the next
        ``last`` span, e.g. one training step from its negative draw to its
        Adam update."""
        out = []
        start = None
        for s in self.spans:
            if s[NAME] == first:
                start = s[START]
            elif s[NAME] == last and start is not None:
                out.append(s[END] - start)
                start = None
        return out
