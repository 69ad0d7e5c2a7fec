"""Spans around the benchmark's calls into each layer of the package.

A span is ``(id, parent id, pass id, layer, name, start, end)``.  Spans are
kept in memory and written out when the run ends.  With tracing off,
:meth:`Tracer.call` calls straight through, so untraced passes pay one
attribute test per call.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Layer name of the benchmark's own glue and output checks.
BENCH = "bench"


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self.pass_id = 0
        self._stack: list[int] = []

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, recorded as a span of ``layer`` when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(layer, name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, layer: str, name: str):
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in when the span ends
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.pass_id, layer, name, start, end)

    def dump(self, path: str) -> None:
        keys = ("id", "parent", "pass", "layer", "name", "start", "end")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def summarize(spans: list[tuple], pass_id: int) -> dict:
    """Per-pass totals: wall, self time per layer, and (layer, name) call totals."""
    spans = [s for s in spans if s[2] == pass_id]
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _, _, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, list] = defaultdict(lambda: [0.0, 0])
    wall = 0.0
    for sid, parent, _, layer, name, start, end in spans:
        dur = end - start
        self_time[layer] += dur - child_time[sid]
        if parent < 0:
            wall += dur
        else:
            total = calls[f"{layer}.{name}"]
            total[0] += dur
            total[1] += 1
    return {"wall": wall, "self": dict(self_time), "calls": {k: tuple(v) for k, v in calls.items()}}
