"""In-memory spans for the traced benchmark run.

A span is (id, parent, name, start, end).  Spans nest strictly, so a span's
self time is its duration minus the durations of its direct children.  All
spans are kept in flat arrays and written out once, when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        self._child_ns: list[int] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.name.append(nid)
        self.end.append(0)
        self._open.append(len(self.start))
        self._child_ns.append(0)
        self.start.append(time.perf_counter_ns())

    def close(self) -> None:
        now = time.perf_counter_ns()
        idx = self._open.pop()
        child = self._child_ns.pop()
        self.end[idx] = now
        dur = now - self.start[idx]
        name = self.names[self.name[idx]]
        self.self_ns[name] += dur - child
        self.calls[name] += 1
        if self._child_ns:
            self._child_ns[-1] += dur

    def call(self, name: str, fn, *args):
        self.open(name)
        try:
            return fn(*args)
        finally:
            self.close()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close()

        return traced

    def write(self, path) -> None:
        """Tab-separated spans, times in microseconds from the first span."""
        t0 = self.start[0] if self.start else 0
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_us\tdur_us\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{names[self.name[i]]}\t"
                    f"{(self.start[i] - t0) / 1e3:.3f}\t"
                    f"{(self.end[i] - self.start[i]) / 1e3:.3f}\n"
                )


class Untraced:
    """Stand-in for :class:`Tracer` in the timed run: calls go straight through."""

    def open(self, name):
        pass

    def close(self):
        pass

    def call(self, name, fn, *args):
        return fn(*args)
