"""In-memory span tracer for the benchmark.

A span is recorded around each call into a simulator layer by replacing
the function in the module namespace it is looked up from with a timing
wrapper.  Every span keeps its name, start, end and parent; self time is
derived from those once the traced episode has ended.  Recording assumes
a single thread: the benchmark runs the simulator with ``n_workers = 1``.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional


@dataclass
class Layer:
    """Aggregate of every span of one name within one episode."""

    total_s: float = 0.0   # inclusive time; a span nested in one of the same name is not added again
    self_s: float = 0.0    # inclusive time minus the time covered by direct child spans
    count: int = 0


class Tracer:
    """Records spans in flat arrays (24 bytes a span) plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._open_by_name: dict[int, int] = {}

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        depth = self._open_by_name.get(nid, 0)
        self.nested.append(depth > 0)
        self._open_by_name[nid] = depth + 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self._open_by_name[self.name_id[idx]] -= 1

    def add(self, counter: str, amount: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable[["Tracer", tuple, object], None]] = None) -> Callable:
        """Return `fn` timed as span `name`; `count(tracer, args, result)`
        may add counters from the call's arguments and result."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self, args, result)
            return result
        return traced

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        return [self.end[i] - self.start[i]
                for i in range(len(self.start)) if self.name_id[i] == nid]

    def layers(self) -> dict[str, Layer]:
        """Total time, self time and call count per span name."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict[str, Layer] = {}
        for i in range(n):
            layer = out.setdefault(self.names[self.name_id[i]], Layer())
            dur = self.end[i] - self.start[i]
            layer.count += 1
            layer.self_s += dur - covered[i]
            if not self.nested[i]:
                layer.total_s += dur
        return out


@dataclass(frozen=True)
class EntryPoint:
    """A layer's entry point: the span name and the attribute callers look up."""

    span: str
    module: str
    attr: str
    count: Optional[Callable[[Tracer, tuple, object], None]] = None


@contextmanager
def instrumented(tracer: Tracer, entry_points: list[EntryPoint]) -> Iterator[list[EntryPoint]]:
    """Wrap every entry point that exists for the duration of the block.

    Yields the entry points that could not be found; they are skipped, so
    a renamed or deleted function never fails the run.  The original
    attributes are restored on exit.
    """
    patched = []
    missing = []
    try:
        for ep in entry_points:
            try:
                module = importlib.import_module(ep.module)
                fn = getattr(module, ep.attr)
            except (ImportError, AttributeError):
                missing.append(ep)
                continue
            setattr(module, ep.attr, tracer.wrap(fn, ep.span, ep.count))
            patched.append((module, ep.attr, fn))
        yield missing
    finally:
        for module, attr, fn in reversed(patched):
            setattr(module, attr, fn)


def absent_spans(entry_points: list[EntryPoint], missing: list[EntryPoint]) -> set[str]:
    """Span names none of whose entry points exist."""
    found = {ep.span for ep in entry_points if ep not in missing}
    return {ep.span for ep in missing} - found
