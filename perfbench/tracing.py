"""In-memory spans and counters, plus the arithmetic the benchmark reports.

A span is (name, start, end, parent) with times from `time.perf_counter`
and `parent` the index of the enclosing span (-1 at top level). Wrappers
push and pop an explicit stack, so nesting follows the call structure of
one thread. Nothing is written until the workload asks for a dump.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict


class InsufficientSamples(ValueError):
    """A percentile was asked for with fewer than ten samples beyond it."""


MIN_SAMPLES_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-th percentile, refused unless at least ten samples lie
    above it (so p90 needs 100 samples and p50 needs 20)."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_SAMPLES_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it, "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    return ordered[rank - 1]


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent), kids in zip(spans, children):
        clipped = [(max(s, start), min(e, end)) for s, e in kids if e > start and s < end]
        out.append((end - start) - _covered(clipped))
    return out


def within(spans, root_name):
    """Per span: True when it is, or nests inside, a span named `root_name`.
    Parents always precede their children in the list."""
    flags = []
    for name, _, _, parent in spans:
        flags.append(name == root_name or (parent >= 0 and flags[parent]))
    return flags


class Recorder:
    """Spans, counters and named samples of one process."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self.values = defaultdict(list)   # named samples in call order
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, before=None):
        """`fn` recorded as a span called `name`; `before(args)` runs first,
        outside the span, for counting."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)

        return wrapper

    def snapshot(self):
        """Plain-data copy: spans as tuples, counters and samples as dicts."""
        return {
            "spans": [tuple(s) for s in self.spans],
            "counts": dict(self.counts),
            "values": {k: list(v) for k, v in self.values.items()},
        }
