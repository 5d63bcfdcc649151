"""In-memory spans around calls into phaselim's public functions.

A span records its name, start, end and the span it was opened under; spans
of one benchmark pass share the pass's root span.  Nothing is written until
the run ends (`write_jsonl`), so tracing costs two clock reads per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class Span:
    sid: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[int, Dict[str, int]] = {}   # root span id -> counters
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.sid)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        """Add `k` to a counter of the pass (root span) now open."""
        root = self._stack[0]
        per = self.counts.setdefault(root, {})
        per[name] = per.get(name, 0) + k

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span called `name`."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def layer_times(self, root: Span):
        """(self, inclusive) seconds per span name under one root span.

        Self time is a span's duration minus the time its child spans cover;
        the root's own self time is reported under its name too.
        """
        members = {root.sid}
        covered: Dict[int, float] = {}      # span id -> time its children cover
        for sp in self.spans[root.sid + 1:]:   # children open after their parent
            if sp.parent in members:
                members.add(sp.sid)
                covered[sp.parent] = covered.get(sp.parent, 0.0) + sp.end - sp.start
        self_t: Dict[str, float] = {}
        incl_t: Dict[str, float] = {}
        for sid in members:
            sp = self.spans[sid]
            dur = sp.end - sp.start
            self_t[sp.name] = self_t.get(sp.name, 0.0) + dur - covered.get(sid, 0.0)
            incl_t[sp.name] = incl_t.get(sp.name, 0.0) + dur
        return self_t, incl_t

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps({"id": sp.sid, "name": sp.name,
                                     "parent": sp.parent, "start": sp.start,
                                     "end": sp.end}) + "\n")
