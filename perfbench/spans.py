"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent span, operation id).  Spans are opened and
closed by wrappers installed on engine functions from outside the engine, so
they nest properly within one thread: the direct children of a span never
overlap, and the time they cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from time import perf_counter


class Tracer:
    """Spans kept in flat arrays; names are interned to small integers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self.op_id = -1

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def write(self, path: str) -> None:
        """One tab-separated line per span: id, parent, op, name, start, end."""
        with gzip.open(path, "wt") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t{names[self.name[i]]}\t"
                         f"{self.start[i]:.7f}\t{self.end[i]:.7f}\n")


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Children of one span are disjoint intervals inside it, because spans come
    from properly nested calls on one thread."""
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


def span_wrapper(tracer: Tracer, name: str, fn, after=None, on_error=None):
    """fn recorded as a span; after(args, result) and on_error(exc) run once
    the span is closed."""
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            tracer.close(i)
            if on_error is not None:
                on_error(exc)
            raise
        tracer.close(i)
        if after is not None:
            after(args, out)
        return out

    return wrapper


def count_wrapper(fn, after):
    """fn without a span (for calls too frequent to record one by one);
    after(args, result) counts it.  Its time stays in the caller's span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        after(args, out)
        return out

    return wrapper


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
