"""Benchmark-side spans around calls into the program's layers.

The program is not edited: :meth:`SpanRecorder.instrument` replaces a
public function (or method) with a wrapper that records one span per
call, in the defining module *and* in every loaded ``repro`` module
that imported the same function object by name.  Spans stay in memory
and are written out once, when the benchmark ends
(:meth:`SpanRecorder.dump`).

A span's parent is the innermost span open in the same context: a
:class:`contextvars.ContextVar` gives threads and asyncio tasks their
own chain.  :func:`self_times` reports each span's duration minus the
part of its interval that its children cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class SpanRecorder:
    """In-memory spans: ``[name, start_s, end_s, parent_span]``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[List[Any]] = []
        self._patched: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> tuple:
        span = [name, self.clock(), None, _current.get()]
        self.spans.append(span)  # one atomic append: threads may share
        return span, _current.set(span)

    def close(self, handle: tuple) -> None:
        span, token = handle
        span[2] = self.clock()
        _current.reset(token)

    def mark(self, name: str) -> None:
        """A zero-length span: an instant worth counting by window."""
        now = self.clock()
        self.spans.append([name, now, now, _current.get()])

    def wrap(self, name: str, func: Callable) -> Callable:
        """A wrapper recording one ``name`` span per call of ``func``."""
        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def awrapper(*args, **kwargs):
                handle = self.open(name)
                try:
                    return await func(*args, **kwargs)
                finally:
                    self.close(handle)

            return awrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            handle = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(handle)

        return wrapper

    # -- installing --------------------------------------------------------

    def instrument(self, owner: Any, attr: str, name: str,
                   wrapper: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` and every by-name import of it.

        ``owner`` is a module or a class.  ``wrapper`` overrides the
        default span wrapper (it receives the original function).
        """
        original = getattr(owner, attr)
        replacement = (
            wrapper(original) if wrapper is not None
            else self.wrap(name, original)
        )
        targets = [owner]
        if inspect.ismodule(owner):
            targets += [
                module for module in list(sys.modules.values())
                if module is not owner
                and getattr(module, "__name__", "").startswith("repro")
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            setattr(target, attr, replacement)
            self._patched.append((target, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`instrument` (newest first)."""
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    # -- output ------------------------------------------------------------

    def finished(self) -> List[List[Any]]:
        """Closed spans as ``[name, start_s, end_s, parent_index]``
        (index into the returned list; -1 for a root)."""
        done = [span for span in list(self.spans) if span[2] is not None]
        index = {id(span): i for i, span in enumerate(done)}
        return [
            [name, start, end,
             -1 if parent is None else index.get(id(parent), -1)]
            for name, start, end, parent in done
        ]

    def dump(self, path: str) -> None:
        """Write the closed spans as JSON lines to ``path``."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.finished():
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent}
                ) + "\n")


def load(path: str) -> List[List[Any]]:
    """The spans of one :meth:`SpanRecorder.dump` file."""
    with open(path, encoding="utf-8") as handle:
        return [
            [row["name"], row["start"], row["end"], row["parent"]]
            for row in map(json.loads, handle)
        ]


def covered(interval: Sequence[float],
            children: Iterable[Sequence[float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in children
        if min(hi, b) > max(lo, a)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Sequence[Any]]) -> List[float]:
    """Per span: duration minus the part its child spans cover."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0 and end is not None:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        if end is None:
            out.append(0.0)
            continue
        out.append((end - start) - covered((start, end), children[idx]))
    return out


def aggregate(spans: Sequence[Sequence[Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``."""
    table: Dict[str, Dict[str, float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        if end is None:
            continue
        row = table.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return table


def layer_self(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self time summed per layer (the span name's first component)."""
    out: Dict[str, float] = defaultdict(float)
    for name, row in table.items():
        out[name.split(".", 1)[0]] += row["self_s"]
    return dict(out)
