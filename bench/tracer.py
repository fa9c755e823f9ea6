"""Per-layer tracing for the minibank benchmark.

The tracer wraps minibank's public phase functions at the names the engine
calls them through (``minibank.engine.random_row_stochastic`` and so on),
records spans in memory, and puts every original object back on exit, so
untraced runs in the same process execute exactly the library's code.
Nothing under ``src/`` is modified.

Per-phase calls (a few dozen per period) each get a span.  Ledger calls and
keyed draws run about 10^5 times per run, so they are aggregated at the
boundary instead: a call count and busy time per name, with the busy time
charged to the enclosing span so its self time stays exact.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


class TracingError(RuntimeError):
    """A wrapped name is missing or was never reached."""


@dataclass
class Span:
    name: str
    start: float
    unit: int
    parent: int | None = None
    end: float = 0.0
    covered: float = 0.0  # time inside aggregated calls made directly from this span


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
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


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover
    (their union, clipped to the span) and minus its aggregated calls."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
        covered = union_length([(a, b) for a, b in clipped if b > a])
        out.append(span.end - span.start - covered - span.covered)
    return out


class Recorder:
    """In-memory spans, aggregated call counters and layer counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.unit = 0
        # per name: [calls, self seconds of aggregated calls]
        self._cells: dict[str, list] = {}
        # open calls, innermost last: [time covered by aggregated children, span index or None]
        self._stack: list[list] = []

    @property
    def calls(self) -> dict[str, int]:
        return defaultdict(int, {name: cell[0] for name, cell in self._cells.items()})

    def spanned(self, name: str, fn, observe=None):
        cell = self._cells.setdefault(name, [0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            index = len(self.spans)
            span = Span(name, perf_counter(), self.unit, parent)
            self.spans.append(span)
            frame = [0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                span.covered = frame[0]
                cell[0] += 1
            if observe is not None:
                observe(self.counts, args, result)
            return result
        return wrapper

    def aggregated(self, name: str, fn):
        cell = self._cells.setdefault(name, [0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                cell[0] += 1
                cell[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
        return wrapper

    def self_seconds(self) -> dict[str, float]:
        """Total self time per wrapped name."""
        totals = defaultdict(float, {name: cell[1] for name, cell in self._cells.items()})
        for span, seconds in zip(self.spans, self_times(self.spans)):
            totals[span.name] += seconds
        return totals

    def write_spans(self, path: Path) -> None:
        lines = ["unit,index,parent,name,start,end,self_s"]
        for i, (span, own) in enumerate(zip(self.spans, self_times(self.spans))):
            parent = "" if span.parent is None else str(span.parent)
            lines.append(f"{span.unit},{i},{parent},{span.name},{span.start!r},{span.end!r},{own!r}")
        path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``owner.attr``, recorded under ``name``."""

    owner: object
    attr: str
    name: str
    aggregated: bool = False
    observe: object = None


@contextmanager
def traced(recorder: Recorder, targets: list[Target]):
    """Wrap every target for the duration of the block, then restore the
    original objects.  A missing name raises TracingError before anything
    runs, rather than leaving a layer silently reported as zero."""
    originals = []
    try:
        for target in targets:
            namespace = vars(target.owner)
            if target.attr not in namespace:
                raise TracingError(f"cannot trace {target.name}: "
                                   f"{target.owner.__name__}.{target.attr} is missing")
            original = namespace[target.attr]
            if target.aggregated:
                wrapper = recorder.aggregated(target.name, original)
            else:
                wrapper = recorder.spanned(target.name, original, target.observe)
            originals.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
