"""Span tracing for the benchmark's traced runs.

The program has no spans of its own yet, so the benchmark records them
around calls into each layer's public functions: :class:`Tracer`
swaps the named functions and methods for timing wrappers while a
traced run executes and restores the originals afterwards.  A module
function is rebound in every ``repro`` module that imported it by
name, so calls from inside the program are seen as well.

Each span holds a name, start, end, parent and thread.  Spans go into
per-thread lists (no lock on the recording path) and are read once,
when the run ends.  Work handed to another thread -- a worker pool's
shard task, a callable queued on the serving runtime -- keeps the span
that handed it over as its parent, so self times subtract it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

clock = time.perf_counter


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    thread: int = 0
    info: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Per-thread span buffers plus the wrappers that fill them."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: List[List[Span]] = []
        self._buffers_lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # -- recording ----------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "buffer"):
            local.buffer = []
            local.stack = []
            with self._buffers_lock:
                self._buffers.append(local.buffer)
        return local

    def current(self) -> Optional[int]:
        """Id of the innermost open span on this thread, if any."""
        stack = self._state().stack
        return stack[-1].sid if stack else None

    def begin(self, name: str, parent: Optional[int] = None) -> Span:
        state = self._state()
        if parent is None and state.stack:
            parent = state.stack[-1].sid
        span = Span(next(self._ids), parent, name, clock(),
                    thread=threading.get_ident())
        state.stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = clock()
        state = self._state()
        state.stack.pop()
        state.buffer.append(span)

    def spans(self) -> List[Span]:
        """Every closed span, all threads merged."""
        with self._buffers_lock:
            return [span for buffer in self._buffers for span in buffer]

    def wrap(self, fn: Callable, name: str, info=None,
             parent: Optional[int] = None) -> Callable:
        """``fn`` inside a ``name`` span; ``info(args, kwargs, result)``
        may return counts to store on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name, parent)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    span.info.update(info(args, kwargs, result))
                return result
            finally:
                self.end(span)

        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """A generator function whose span runs from its first item to
        its exhaustion (the consumer's work in between falls inside)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            self.release()  # the consumer's calls are not its children
            try:
                yield from fn(*args, **kwargs)
            finally:
                self.finish(span, clock())

        return traced

    def release(self) -> None:
        """Stop treating the innermost span as current without ending
        it -- for a request span that ends when its reply arrives
        (:meth:`finish`), after other requests have begun."""
        self._state().stack.pop()

    def finish(self, span: Span, end: float) -> None:
        span.end = end
        self._state().buffer.append(span)

    def wrap_handoff(self, fn: Callable, name: str, queued_at=None) -> Callable:
        """A callable that will run on another thread: its span's parent
        is the span open here, now."""
        parent = self.current()

        def traced(*args, **kwargs):
            span = self.begin(name, parent)
            if queued_at is not None:
                span.info["queue_wait"] = span.start - queued_at
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    # -- patching -----------------------------------------------------

    def patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module:attr`` or ``module:Class.method`` with
        ``make(original)`` until :meth:`restore`."""
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(make(raw.__func__))
            else:
                replacement = make(raw)
            setattr(owner, attr, replacement)
            self._undo.append(lambda: setattr(owner, attr, raw))
            return
        original = getattr(owner, attr)
        replacement = make(original)
        for name, mod in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._undo.append(
                        functools.partial(setattr, mod, key, original)
                    )

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


# -- span arithmetic --------------------------------------------------


def covered(intervals, start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of intervals."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low = max(low, reach)
        high = min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


class SpanIndex:
    """Parent/child lookups over a finished run's spans."""

    def __init__(self, spans: List[Span]):
        self.spans = spans
        self.by_id = {span.sid: span for span in spans}
        self.children: Dict[int, List[Span]] = {}
        for span in spans:
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def ancestors(self, span: Span):
        parent = self.by_id.get(span.parent)
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent.parent)

    def outermost(self, names) -> List[Span]:
        """Spans named in ``names`` not nested in another such span."""
        names = set(names)
        return [
            span for span in self.spans
            if span.name in names
            and not any(a.name in names for a in self.ancestors(span))
        ]

    def under(self, span: Span, names) -> bool:
        names = set(names)
        return any(a.name in names for a in self.ancestors(span))

    def self_seconds(self, span: Span) -> float:
        kids = self.children.get(span.sid, ())
        return span.seconds - covered(
            [(k.start, k.end) for k in kids], span.start, span.end
        )

    def descendant_cover(self, span: Span) -> float:
        """Seconds of ``span`` inside any of its descendants."""
        intervals = []
        pending = list(self.children.get(span.sid, ()))
        while pending:
            kid = pending.pop()
            intervals.append((kid.start, kid.end))
            pending.extend(self.children.get(kid.sid, ()))
        return covered(intervals, span.start, span.end)
