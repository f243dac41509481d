"""In-memory spans around calls into eqls, recorded from the benchmark's side.

The tracer replaces functions by wrappers *as module attributes*, in every
eqls module that holds a reference to them.  Calls the program makes through
module globals (melting_roots -> plasma_parameter, stark_scan ->
solve_bound_states) are therefore spanned too, and each span knows its parent.
Nothing is written until the benchmark ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = -1
    info: dict = field(default_factory=dict)


class Tracer:
    """Records one span per wrapped call; `op` tags spans with the operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counters=None):
        """`counters(args, kwargs, result) -> dict` adds counts to the span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else None, op=self.op)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counters is not None:
                span.info = counters(args, kwargs, result)
            return result

        return traced

    def install(self, modules, targets: dict):
        """Wrap `targets` ({qualified name: (function, counters)}) wherever
        any of `modules` holds them."""
        wrappers = {id(fn): self.wrap(name, fn, counters)
                    for name, (fn, counters) in targets.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are merged as intervals clipped to the parent, so overlapping or
    over-running children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out
