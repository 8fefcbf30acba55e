"""In-memory span tracer and the summary statistics the benchmark reports.

The tracer wraps public functions of the program from outside: ``patch``
replaces a class or module attribute with a wrapper that opens a span
around each call, and ``restore`` puts every original back.  Nothing in
``src/`` knows about it.  Spans nest per thread; a span's self time is
its duration minus the time its direct children cover.  Generator
functions (the exchange's ``on_gradient`` runs as a simulator
coroutine) are timed slice by slice, so the time spent suspended in the
event loop is not charged to them.
"""

from __future__ import annotations

import inspect
import json
import math
import re
import threading
import time
from contextlib import contextmanager

__all__ = ["Tracer", "NullTracer", "tail_percentile", "percentile",
           "failed_frac", "METRIC_NAME"]

#: charset of every metric name the benchmark prints
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: candidate percentiles for a reported tail, in tenths of a percent,
#: highest first (integers, so the "ten beyond" test is exact)
_TAIL_LADDER = (999, 990, 950, 900, 750, 500)


def tail_percentile(n: int) -> float | None:
    """Highest percentile of ``n`` samples with at least ten samples
    beyond it (None when even the median has fewer than ten above it)."""
    for q in _TAIL_LADDER:
        if n * (1000 - q) >= 10 * 1000:
            return q / 10.0
    return None


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def failed_frac(failed_evals: int, failed_checks: int,
                attempted: int) -> float:
    """Failed evaluations plus failed checks over everything attempted."""
    if attempted <= 0:
        raise ValueError("nothing attempted")
    return (failed_evals + failed_checks) / attempted


class _Stat:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []


class NullTracer:
    """Untraced runs: ``span`` costs a context-manager entry, nothing more."""

    @contextmanager
    def span(self, name: str):
        yield


class Tracer:
    """Records spans in memory; aggregates per-name self time on exit."""

    def __init__(self, keep_spans: bool = True,
                 clock=time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, _Stat] = {}
        self.keep_spans = keep_spans
        #: (name, start, end, nesting depth, thread id), in exit order
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        # [name, start, time covered by direct children]
        self._stack().append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        stack = self._stack()
        name, start, child = stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        st.calls += 1
        st.total += dur
        st.self_time += dur - child
        st.durations.append(dur)
        if stack:
            stack[-1][2] += dur
        if self.keep_spans:
            self.spans.append((name, start, end, len(stack),
                               threading.get_ident()))

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # -- wrapping program functions -----------------------------------
    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-opening wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        if inspect.isgeneratorfunction(original):
            def wrapper(*args, **kwargs):
                return tracer._sliced(original(*args, **kwargs), name)
        else:
            def wrapper(*args, **kwargs):
                tracer.enter(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.exit()

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _sliced(self, gen, name: str):
        """Re-yield ``gen``, timing each resumption as one span (so a
        generator's ``calls`` counts resumptions, not invocations)."""
        value, error = None, None
        while True:
            self.enter(name)
            try:
                item = gen.throw(error) if error is not None \
                    else gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self.exit()
            value, error = None, None
            try:
                value = yield item
            except BaseException as exc:     # forwarded into ``gen``
                error = exc

    def restore(self) -> None:
        """Put every patched attribute back (reverse order)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------
    def write_chrome(self, path) -> None:
        """Spans as Chrome Trace Event Format complete events (viewable
        in Perfetto or chrome://tracing)."""
        if not self.spans:
            return
        t0 = min(s[1] for s in self.spans)
        events = [{"name": n, "ph": "X", "pid": 0, "tid": tid,
                   "ts": round((s - t0) * 1e6, 3),
                   "dur": round((e - s) * 1e6, 3), "args": {"depth": d}}
                  for n, s, e, d, tid in self.spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)
