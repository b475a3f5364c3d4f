"""Outside-in span tracer for the benchmark.

The tracer replaces the names that callers look up (a module global or a
class attribute) with timing wrappers, so no program file is edited. It
keeps every span in memory:

* fine spans are aggregated per name into a call count, total time, self
  time, error count and the per-call durations (for percentiles);
* coarse spans (``wrap(..., coarse=True)`` or ``span()``) are also kept in
  full, with start, end and the name of the span that caused them.

A span's self time is its duration minus the time its direct children
took, wrappers included. The wrapper's own bookkeeping therefore shows in
no span's self time; it is the difference between a traced and an
untraced run.

Stdlib only: the harness imports this module without numpy.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from contextlib import contextmanager


class SpanStats:
    """Aggregate of every call made under one span name."""

    __slots__ = ("calls", "total_ns", "self_ns", "errors", "durations_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.errors = 0
        self.durations_ns = array("q")

    def percentile_ns(self, q: float) -> float:
        """Nearest-rank percentile of the per-call durations; q in [0, 100]."""
        if not self.durations_ns:
            return 0.0
        ordered = sorted(self.durations_ns)
        return float(ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1])


class Tracer:
    """Records spans for wrapped callables; ``restore`` undoes every wrap."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self._stack: list[list] = []  # [name, child_ns] of each open span
        self._patches: list[tuple[object, str, object]] = []
        self.stats: dict[str, SpanStats] = {}
        self.coarse: list[dict] = []
        self.counters: dict[str, int] = {}

    # -- recording ----------------------------------------------------

    def _close(self, start: int, end: int, entered: int, coarse: bool, failed: bool) -> None:
        """Account a finished span timed [start, end].

        The parent is charged everything from ``entered`` (the wrapper's
        first clock read) to the last clock read here, so wrapper
        bookkeeping shows as overhead, not as the parent's self time.
        """
        name, child_ns = self._stack.pop()
        duration = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.total_ns += duration
        st.self_ns += duration - child_ns
        st.errors += failed
        st.durations_ns.append(duration)
        if coarse:
            self.coarse.append({
                "name": name, "start_ns": start, "end_ns": end,
                "parent": self._stack[-1][0] if self._stack else None,
                "failed": failed,
            })
        if self._stack:
            self._stack[-1][1] += self._clock() - entered

    @contextmanager
    def span(self, name: str, coarse: bool = True):
        """Time a block of the caller's own code as a span."""
        entered = self._clock()
        self._stack.append([name, 0])
        failed = True
        start = self._clock()
        try:
            yield
            failed = False
        finally:
            self._close(start, self._clock(), entered, coarse, failed)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- wrapping -----------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, label=None, observe=None,
             coarse: bool = False) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``label(name, args, kwargs)`` may refine the span name per call;
        ``observe(tracer, args, kwargs, result)`` runs after a successful
        call to update counters.
        """
        if any(o is owner and a == attr for o, a, _ in self._patches):
            raise ValueError(f"{owner!r}.{attr} is already wrapped")
        original = vars(owner)[attr]
        clock, stack, close = self._clock, self._stack, self._close

        @functools.wraps(original)
        def traced(*args, **kwargs):
            entered = clock()
            stack.append([name if label is None else label(name, args, kwargs), 0])
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                close(start, clock(), entered, coarse, True)
                raise
            end = clock()
            if observe is not None:
                observe(self, args, kwargs, result)
            close(start, end, entered, coarse, False)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original callable back, newest wrap first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------

    def self_s(self, prefix: str) -> float:
        """Summed self time, in seconds, of spans named prefix or prefix.*"""
        return sum(st.self_ns for n, st in self._matching(prefix)) / 1e9

    def calls(self, prefix: str) -> int:
        return sum(st.calls for n, st in self._matching(prefix))

    def errors(self, prefix: str) -> int:
        return sum(st.errors for n, st in self._matching(prefix))

    def _matching(self, prefix: str):
        return ((n, st) for n, st in self.stats.items()
                if n == prefix or n.startswith(prefix + "."))

    def summary(self) -> dict:
        """Every span name with its aggregate and p50/p90/p99, in seconds."""
        return {
            name: {
                "calls": st.calls,
                "total_s": st.total_ns / 1e9,
                "self_s": st.self_ns / 1e9,
                "errors": st.errors,
                "p50_us": st.percentile_ns(50) / 1e3,
                "p90_us": st.percentile_ns(90) / 1e3,
                "p99_us": st.percentile_ns(99) / 1e3,
            }
            for name, st in sorted(self.stats.items())
        }
