"""Spans and clocks recorded on the benchmark's side of each public call.

A span is (name, parent, start, end). Names are ``<layer>.<step>``, where
the layer is the package module that was called (``parsing``, ``gfpoly``,
``semigroup``, ``zerosum``, ``verify``) or ``bench`` for the benchmark's
own grouping span around a pass. With tracing off, ``span`` hands
back one shared no-op object, so the untraced run pays a method call per
public call and records nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        self.tracer._open.append(self.index)
        self.tracer.spans[self.index][2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][3] = time.perf_counter()
        self.tracer._open.pop()
        return False


class Tracer:
    """In-memory span recorder; disabled tracers record nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._open: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, 0.0, 0.0])
        return _Span(self, len(self.spans) - 1)

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every closed span with this name."""
        return [end - start for n, _, start, end in self.spans if n == name]

    def layer_self_times(self) -> dict[str, float]:
        """Per layer: summed span time minus the time its child spans cover.

        Child spans run strictly inside their parent (the tracer is
        single-threaded), so subtracting their durations is exact.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, start, end) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (end - start) - child[i]
        return dict(out)


class Clock:
    """Wall and CPU time accumulated over disjoint intervals."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self):
        self._w = time.perf_counter()
        self._c = time.process_time()
        return self

    def __exit__(self, *exc):
        self.wall += time.perf_counter() - self._w
        self.cpu += time.process_time() - self._c
        return False
