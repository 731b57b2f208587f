"""In-memory spans for the traced benchmark run.

A span records (name, start, end, parent span index, item id).  Spans stay
in memory and are summarised and written out when the run ends.  The
benchmark opens them around its own calls into the library, so the library
itself is not instrumented.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

import numpy as np

ITEM = "item"  # name of the root span of one item


class NullTracer:
    """Tracer used for untraced items: every span is a shared no-op."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.counts: dict[str, int] = {}
        self.item: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, calls per item, median duration and the
        share of item wall time spent in the span itself (its duration minus
        the part covered by its child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        items = sum(1 for s in self.spans if s[0] == ITEM)
        item_time = sum(s[2] - s[1] for s in self.spans if s[0] == ITEM)
        by_name: dict[str, tuple[list, list, bool]] = {}
        for i, (name, start, end, _, item) in enumerate(self.spans):
            durs, selfs, in_item = by_name.setdefault(name, ([], [], item is not None))
            durs.append(end - start)
            selfs.append(end - start - child_time[i])
        out = {}
        for name, (durs, selfs, in_item) in by_name.items():
            row = {"calls": len(durs), "p50_ms": float(np.median(durs)) * 1e3}
            if in_item and items:
                row["calls_per_item"] = len(durs) / items
                row["share"] = sum(selfs) / item_time
            out[name] = row
        return out
