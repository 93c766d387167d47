"""In-memory span recorder for the traced benchmark run.

A :class:`Tracer` replaces public tensorfill functions, at the module names
the library looks them up under at call time, with wrappers that record one
span per call: name, start, end, parent span, and a small ``info`` value
taken from the call (an argument shape, a result).  Spans stay in memory
until the run ends; :func:`self_times` turns them into
per-layer self times.

The recorder assumes one thread: the parent of a span is the innermost open
span, which is only right when calls nest (``SolverConfig.threads == 1``).
"""

import functools
import json
import time


class Span:
    """One recorded call.  Times are ``perf_counter_ns`` values."""

    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, end, parent, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.info = info

    def as_dict(self):
        return {
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "info": self.info,
        }


class Tracer:
    """Records spans for the functions it wraps until :meth:`restore`."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._patched = []

    def wrap(self, module, attr, name, info=None):
        """Replace ``module.attr`` by a recording wrapper.

        ``info(args, kwargs, result)`` runs after the span has closed and
        its value is kept on the span.  A name the module no longer has is
        listed in ``missing`` instead of raising, so the benchmark keeps
        working when a refactor removes a layer function.  Returns whether
        the name was wrapped.
        """
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(f"{module.__name__}.{attr}")
            return False
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0, 0, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)
        return True

    def restore(self):
        """Put every wrapped function back."""
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Each span's duration minus the part its direct children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return [
        span.end - span.start
        - _covered(span.start, span.end, [(c.start, c.end) for c in kids])
        for span, kids in zip(spans, children)
    ]

