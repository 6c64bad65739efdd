"""In-memory span tracer that wraps satrank entry points from outside the library.

Only the traced benchmark run installs it.  Spans are kept in a list while
the pass runs and written out once, at exit, as JSON lines:
[name, start, end, parent, attrs], with parent the index of the enclosing
span (or -1) and attrs the counts taken at that boundary.

A layer's self time is its span's duration minus the part covered by its
child spans; because spans nest strictly in this single-threaded program,
the self times of a tree sum to its root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []    # [name, start, end, parent, attrs]
        self._stack = []   # indices of the open spans
        self._undo = []    # (owner, attr, original) for uninstall

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the with-block; yields the span record."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name, counts=None):
        """fn wrapped in a span; name may be a callable of (args, kwargs).

        counts(args, kwargs, result) returns the attrs stored on the span.
        """
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = open_(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(span)
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, counts=None, package="satrank"):
        """Replace owner.attr by its traced wrapper, and every module-level copy.

        `from .lie import srk_brute` binds a second reference in the importing
        module, so each loaded module of `package` holding the same object is
        patched too.
        """
        original = getattr(owner, attr)
        wrapper = self.wrap(original, name, counts)
        owners = [owner]
        if not isinstance(owner, type):
            owners += [m for mname, m in sorted(sys.modules.items())
                       if m is not owner and (mname == package or mname.startswith(package + "."))
                       and vars(m).get(attr) is original]
        for o in owners:
            setattr(o, attr, wrapper)
            self._undo.append((o, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w") as fp:
            for span in self.spans:
                fp.write(json.dumps(span) + "\n")


def load_spans(path):
    with open(path) as fp:
        return [json.loads(line) for line in fp if line.strip()]


def self_times(spans):
    """Per-span duration minus the time covered by its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def outermost(spans, name):
    """Indices of spans called name that have no ancestor of the same name."""
    out = []
    for i, s in enumerate(spans):
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out
