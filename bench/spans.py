"""Aggregating span recorder: per-name call counts, total and self time.

A span covers one call of a wrapped function. Spans nest through a stack
of open spans, so each closed span adds its duration to its parent's
child time; a name's self time is its total minus the time its direct
children cover. Only the per-name aggregates are kept, so memory stays
constant however many calls a run makes. Counters (rows written, samples
drawn, ...) are kept beside the spans under their own names.

The module depends on nothing but the standard library, so the same
recorder can be reused unchanged inside a program that reports its own
per-layer split.
"""

from __future__ import annotations

import time
from typing import Callable


class SpanRecorder:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stack: list[float] = []  # child time accumulated by each open span
        self._spans: dict[str, list] = {}  # name -> [calls, total_s, child_s]
        self.counters: dict[str, float] = {}

    def _stat(self, name: str) -> list:
        return self._spans.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        ``after(args, kwargs, result)`` runs once the call returns; the
        time it takes is charged to neither the span nor its parent's
        self time.
        """
        stat = self._stat(name)
        stack = self._stack
        clock = self._clock

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += child
                if stack:
                    stack[-1] += dt
            if after is not None:
                t1 = clock()
                after(args, kwargs, result)
                if stack:
                    stack[-1] += clock() - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        for stat in self._spans.values():
            stat[:] = [0, 0.0, 0.0]
        self.counters.clear()

    def calls(self, name: str) -> int:
        return self._spans.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self._spans.get(name, [0, 0.0])[1]

    def self_s(self, name: str) -> float:
        stat = self._spans.get(name, [0, 0.0, 0.0])
        return stat[1] - stat[2]

    def names(self) -> list[str]:
        return sorted(n for n, stat in self._spans.items() if stat[0])
