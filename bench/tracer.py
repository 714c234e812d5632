"""In-process span tracer for the benchmark's traced run.

The tracer replaces a module attribute (the name a caller looks up, such as
``biharmfem.biharmonic.saddle_solve``) with a wrapper that records a span
around each call, and puts the original back on ``uninstall``.  Spans are
kept in memory: name, parent span, operation number, start, end, and the
attributes an optional hook derives from the call's arguments and result.

Hooks run outside the span they annotate, inside a ``trace.hook`` span of
their own, so the time they take is never counted as the parent layer's
self time.
"""

from __future__ import annotations

import functools
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, parent, self.op, time.perf_counter(), attrs=attrs)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def traced(self, fn, name: str, hook=None):
        """``fn`` wrapped in a span; ``hook(args, kwargs, result)`` returns
        attributes for the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if hook is not None:
                with self.span("trace.hook"):
                    rec.attrs.update(hook(args, kwargs, result))
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, hook=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.traced(original, name, hook))

    def wrap_module_function(self, owner, module_attr: str, fn_name: str,
                             name: str, hook=None):
        """Give ``owner`` a stand-in for the module it reaches as
        ``owner.<module_attr>`` whose ``fn_name`` is traced; every other
        attribute is the real module's."""
        module = getattr(owner, module_attr)
        proxy = types.SimpleNamespace(**vars(module))
        setattr(proxy, fn_name,
                self.traced(getattr(module, fn_name), name, hook))
        self._patched.append((owner, module_attr, module))
        setattr(owner, module_attr, proxy)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Children of one span run one after another in a single thread, so
        the part of the parent they cover is the sum of their durations.
        """
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def op_spans(self, op: int) -> list[tuple[Span, float]]:
        selfs = self.self_times()
        return [(s, t) for s, t in zip(self.spans, selfs) if s.op == op]
