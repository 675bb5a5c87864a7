"""In-memory span tracer for the traced benchmark run.

Wrappers replace module-level names of ``fcdispatch.dispatch`` so that the
calls ``dispatch`` makes between its layers pass through a timer. Each span
records its name, start, end, parent span and request id, plus one number
taken from the call (a size or count, see NOTES). Spans stay in memory and
are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Names looked up at call time inside fcdispatch.dispatch, with the layer
# each belongs to. The two entry points are wrapped too: they are the root
# spans, and a one-shot dispatch shows its table solve as a child.
WRAPPED = {
    "dispatch": "dispatch.dispatch",
    "dispatch_table": "dispatch.dispatch_table",
    "build_table": "dispatch.build_table",
    "locate_segment": "dispatch.locate_segment",
    "solve_segment_sqrt": "dispatch.solve_segment_sqrt",
    "select_feasible_root": "dispatch.select_feasible_root",
    "real_roots": "poly_roots.real_roots",
    "reduce_network": "stack_model.reduce_network",
    "validate_network": "stack_model.validate_network",
}

# The number a span keeps from its call: (args, return value) -> float.
NOTES = {
    "dispatch.build_table": lambda args, ret: len(ret.stacks),
    "dispatch.locate_segment": lambda args, ret: len(ret.interior),
    "dispatch.solve_segment_sqrt": lambda args, ret: len(ret),
}

# Span tuple fields.
SID, NAME, START, END, PARENT, REQ, NOTE, ERROR = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.req = None
        self._stack: list[int] = []
        self._originals: dict = {}

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(sid)
            ret, error = None, None
            t0 = time.perf_counter()
            try:
                ret = fn(*args, **kwargs)
                return ret
            except BaseException as err:
                error = type(err).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                value = note(args, ret) if note and error is None else None
                spans.append((sid, name, t0, t1, parent, self.req, value, error))

        return traced

    def call(self, name: str, fn, *args):
        """Run fn(*args) as a span of the benchmark's own (a root, or a child)."""
        return self.wrap(name, fn)(*args)

    def install(self, module) -> None:
        for attr, name in WRAPPED.items():
            self._originals[attr] = getattr(module, attr)
            setattr(module, attr, self.wrap(name, self._originals[attr]))

    def uninstall(self, module) -> None:
        for attr, fn in self._originals.items():
            setattr(module, attr, fn)
        self._originals.clear()

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "req", "note", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    return {s[SID]: s[END] - s[START] - child_time[s[SID]] for s in spans}


def roots_of(spans) -> dict:
    """Span id -> id of the root span above it."""
    parent = {s[SID]: s[PARENT] for s in spans}
    root = {}
    for s in spans:
        sid = s[SID]
        while parent[sid] is not None:
            sid = parent[sid]
        root[s[SID]] = sid
    return root
