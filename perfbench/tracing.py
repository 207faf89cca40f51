"""Spans and counters recorded from outside the package.

The benchmark calls every package function it times through
:meth:`Tracer.call`.  An untraced run's tracer only forwards the call.  A
traced run's tracer records a span per call: op id, name, start, end and the
index of the enclosing span.  Counters are read from outside (arena sizes,
memo counters, overlay counters) and added with :meth:`Tracer.add`.

Three counts need calls made inside other modules.  For those, the traced
run alone rebinds the function at the module attribute its callers look up
(:meth:`Tracer.wrap`): ``core.fnv1a_pair`` and ``core.evaluate`` are counted,
``faults.parent_map`` gets a span of its own.  :meth:`Tracer.unwrap` puts the
originals back.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.recording = False  # spans and wrapped counts only inside timed steps
        self.spans: list[list] = []  # [op id, name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self._open: list[int] = []
        self._wrapped: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span when recording."""
        if not self.recording:
            return fn(*args, **kwargs)
        index = len(self.spans)
        span = [self.op_id, name, perf_counter(), 0.0, self._open[-1] if self._open else None]
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self._open.pop()

    def add(self, name: str, value: float = 1):
        if self.enabled:
            self.counts[name] += value

    def peak(self, name: str, value: float):
        if self.enabled:
            self.maxima[name] = max(self.maxima[name], value)

    def wrap(self, module, attr: str, span: bool = False):
        """Rebind ``module.attr`` so each call is counted (or spanned)."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        if span:
            def wrapper(*args, **kwargs):
                return self.call(name, original, *args, **kwargs)
        else:
            counts = self.counts
            key = f"{name}.calls"

            def wrapper(*args, **kwargs):
                if self.recording:
                    counts[key] += 1
                return original(*args, **kwargs)
        setattr(module, attr, wrapper)
        self._wrapped.append((module, attr, original))

    def unwrap(self):
        while self._wrapped:
            module, attr, original = self._wrapped.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus time covered by child spans."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for k, (_, name, start, end, _) in enumerate(self.spans):
            totals[name] += end - start - child[k]
        return totals

    def write(self, path, header: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump({**header, "fields": ["op", "name", "start", "end", "parent"],
                       "spans": self.spans}, out)
