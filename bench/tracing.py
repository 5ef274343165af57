"""In-memory spans and work counters for the benchmark's traced runs.

Spans are recorded from the benchmark's own files, around each call into a
``spaceform_lab`` layer; nothing inside the package is instrumented.  A span
is ``(name, start, end, parent, pass_id)``: ``parent`` is the index of the
enclosing span, or ``None`` for a call made directly by the pass.  Untraced
runs use :class:`NullTracer`, which only forwards the call.
"""

from __future__ import annotations

import json
from time import perf_counter

SETUP = "setup"


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.pass_id = SETUP
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.pass_id)

    def count(self, name, n=1):
        key = (self.pass_id, name)
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def pass_counts(self, pass_id) -> dict:
        return {name: n for (pid, name), n in self.counts.items() if pid == pass_id}

    def layer_times(self, pass_id) -> dict:
        """``{name: [busy_s, self_s]}`` summed over the spans of one pass.

        Self time is a span's duration minus that of its direct children;
        calls within a pass run one after another, so children never overlap.
        """
        child_s = {}
        for name, start, end, parent, pid in self.spans:
            if pid == pass_id and parent is not None:
                child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        out = {}
        for index, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            busy = end - start
            acc = out.setdefault(name, [0.0, 0.0])
            acc[0] += busy
            acc[1] += busy - child_s.get(index, 0.0)
        return out

    def top_level_s(self, pass_id) -> float:
        return sum(end - start for _, start, end, parent, pid in self.spans
                   if pid == pass_id and parent is None)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "pass_id"],
                "spans": self.spans,
                "counts": [[pid, name, n] for (pid, name), n in self.counts.items()],
            }, fh)
            fh.write("\n")


def traced_eval_at(tracer, triple):
    """Route a TripleField's ``eval_at`` through the tracer (traced runs only).

    The sweeps call ``triple.eval_at`` once per RHS evaluation, so the
    instance attribute set here sees every call without touching the package.
    """
    if tracer.enabled:
        inner = triple.eval_at

        def eval_at(points):
            tracer.count("triples.eval_at.calls")
            tracer.count("triples.eval_at.points", len(points))
            return tracer.call("triples.eval_at", inner, points)

        triple.eval_at = eval_at
    return triple
