"""Layer tracing from outside the program: timed wrappers around its calls.

The benchmark measures the ``repro`` layers without touching ``src/``:
a :class:`LayerTracer` replaces a function or method *where its caller
looks it up* (for example ``repro.streaming.client.unpack_frame``, not
``repro.rlnc.wire.unpack_frame``) with a wrapper that times the call,
and restores every original on :meth:`LayerTracer.uninstall`.

Time is booked as *self time*: a span's duration minus the time of the
spans nested inside it, so the layer totals add up to (at most) the
timed loop's wall clock and their sum over that wall is the trace coverage.
Counting-only wrappers (:meth:`LayerTracer.counted`) record work but no
time; what they wrap stays in the enclosing span's self time.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter_ns

_MISSING = object()


class LayerTracer:
    """Self-time spans and counters keyed by metric name."""

    def __init__(self) -> None:
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, float] = defaultdict(float)
        # One child-time accumulator per open span, innermost last.
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def timed(self, name: str, fn, on_call=None):
        """Wrap ``fn`` in a span of ``name``; ``on_call(args, kwargs,
        result)`` records counts after each call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self._stack.pop()
                self.self_ns[name] += elapsed - frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn, on_call):
        """Wrap ``fn`` to run ``on_call(args, kwargs, result)``, untimed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_call(args, kwargs, result)
            return result

        return wrapper

    def ms(self, name: str) -> float:
        return self.self_ns[name] / 1e6

    # -- installing wrappers -------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until uninstall.

        ``owner`` is the module or class the caller resolves the name
        through; the original attribute (or its absence, for inherited
        methods) is restored exactly.
        """
        original = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
