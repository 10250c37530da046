"""Spans and probes around the names of ``recloop``, set from outside.

A name is wrapped where the program looks it up: ``compute_metrics_record``
is replaced in ``recloop.dynamics``, whose ``run`` calls it, and hook
methods are replaced on the classes that define them. A wrapper may record
a span (name, start, end, parent) and may hand each call's arguments, result
and duration to a probe, which the workload uses to collect what its checks
and counters need. Spans stay in memory until ``Tracer.write``.

This module imports only the standard library, so the workload can create
its tracer before it imports the program.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter


class Tracer:
    """The spans of one process, as (name, start_ns, end_ns, parent index)."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, time.perf_counter_ns(), 0, parent))
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter_ns(), parent)
        self._open.pop()

    def self_times(self) -> tuple[dict[str, float], Counter, float]:
        """Self seconds and call counts per name, and the seconds of root spans.

        A span's self time is its duration minus the durations of its direct
        children, so the self times of all spans add up to the root total.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        root_ns = 0
        for (name, start, end, parent), inner in zip(self.spans, child_ns):
            self_ns[name] += end - start - inner
            calls[name] += 1
            if parent < 0:
                root_ns += end - start
        return {k: v / 1e9 for k, v in self_ns.items()}, calls, root_ns / 1e9

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start_ns,end_ns,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{index},{name},{start},{end},{parent}\n")


def patch(owner, attr: str, tracer: Tracer | None = None, span: str | None = None,
          probe=None, named: bool = False) -> None:
    """Replace ``owner.attr`` (a module or class attribute) by a wrapper.

    With a tracer and a span name, each call records a span. With a probe,
    each call ends with ``probe(arguments, result, seconds)``, where
    ``arguments`` maps parameter names to values when ``named`` is set and is
    None otherwise. Nothing is replaced when there is nothing to record.
    """
    if tracer is None:
        span = None
    if span is None and probe is None:
        return
    raw = vars(owner)[attr]
    fn = raw.__func__ if isinstance(raw, classmethod) else raw
    bind = inspect.signature(fn).bind if named else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(span) if span else -1
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            if span:
                tracer.end(index)
        if probe is not None:
            arguments = bind(*args, **kwargs).arguments if bind else None
            probe(arguments, result, (time.perf_counter_ns() - start) / 1e9)
        return result

    setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod)
            else wrapper)
