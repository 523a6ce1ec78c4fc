"""In-memory spans around calls into the package's layers.

A Tracer wraps public functions (module attributes) and methods (class
attributes) so that every call records a span [name, start, end, parent,
op]: parent is the index of the enclosing span, or -1, and op is the
index of the benchmark operation it ran under.  Wrappers are installed
only around traced operations and removed after them, so untraced
operations run the package's own functions.  Spans stay in memory and
are written once, when the run ends.
"""
from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self.op = -1

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op])
        self._open.append(idx)
        self.spans[idx][1] = perf_counter()
        try:
            yield
        finally:
            self.spans[idx][2] = perf_counter()
            self._open.pop()

    @contextmanager
    def patched(self, targets):
        """Wrap each (owner, attribute, span name) for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reductions ---------------------------------------------------------

    def durations(self, name, parent=None, setup=False):
        """Span times of `name`: inside operations, or in set-up when `setup`.

        With `parent`, only spans directly inside a span of that name.
        """
        return [
            s[2] - s[1]
            for s in self.spans
            if s[0] == name
            and (s[4] < 0) == setup
            and (parent is None or (s[3] >= 0 and self.spans[s[3]][0] == parent))
        ]

    def _per_op(self, name, weigh):
        totals = {s[4]: 0.0 for s in self.spans if s[0] == "op"}
        for s in self.spans:
            if s[0] == name and s[4] in totals:
                totals[s[4]] += weigh(s)
        return list(totals.values())

    def per_op_totals(self, name):
        """Summed span time of `name` within each traced operation."""
        return self._per_op(name, lambda s: s[2] - s[1])

    def per_op_counts(self, name):
        """Calls of `name` within each traced operation."""
        return self._per_op(name, lambda s: 1)

    def self_times(self, name):
        """Duration of each `name` span inside an operation, minus the
        spans directly inside it."""
        inner = {}
        for s in self.spans:
            if s[3] >= 0:
                inner[s[3]] = inner.get(s[3], 0.0) + s[2] - s[1]
        return [
            s[2] - s[1] - inner.get(i, 0.0)
            for i, s in enumerate(self.spans)
            if s[0] == name and s[4] >= 0
        ]


def median_ms(values):
    return 1e3 * statistics.median(values)


def median_us(values):
    return 1e6 * statistics.median(values)
