"""Spans recorded around calls into the program's layers.

A :class:`Tracer` replaces a public function or method with a wrapper
that records one :class:`Span` per call — name, start, end, the span
that caused it, and the campaign it belongs to — and keeps every span
in memory until :meth:`Tracer.write_jsonl` dumps them at the end of
the campaign.  Nothing inside the program changes: the wrappers sit at
the attribute the callers look up.

Each thread keeps its own stack of open spans.  A span opened on a
thread with an empty stack (a worker thread of the profiling cluster)
takes as parent the innermost open span of the thread that installed
the tracer, i.e. the dispatch call the worker serves.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "thread", "items")

    def __init__(self, span_id: int, parent: Optional[int], name: str,
                 start: float, thread: int):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.thread = thread
        #: Work items the call handled, where the layer reports them
        #: (recorded accesses of a traced run, jobs of a dispatch).
        self.items: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Stacks(threading.local):
    def __init__(self) -> None:
        self.stack: List[Span] = []


class Tracer:
    def __init__(self, campaign_id: str):
        self.campaign_id = campaign_id
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = _Stacks()
        self._main_stack = self._local.stack
        self._patches: List[Tuple[Any, str, Any]] = []
        self.origin = time.perf_counter()

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> Span:
        stack = self._local.stack
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        span = Span(next(self._ids), parent.id if parent else None, name,
                    time.perf_counter(), threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._local.stack
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def wrap(self, func: Callable, name: Any,
             items: Optional[Callable[..., int]] = None) -> Callable:
        """*func* recording a span per call.  *name* is a string or a
        callable of ``(args, kwargs)``; *items*, if given, is called as
        ``items(args, kwargs, result)`` after the span closes."""
        open_span, close_span = self.open, self.close
        naming = name if callable(name) else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = open_span(naming(args, kwargs) if naming else name)
            try:
                result = func(*args, **kwargs)
            finally:
                close_span(span)
            if items is not None:
                span.items = items(args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: Any,
                     items: Optional[Callable[..., int]] = None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, items))

    def patch_function(self, module: str, attr: str, name: Any,
                       items: Optional[Callable[..., int]] = None,
                       prefix: str = "repro") -> int:
        """Wrap ``module.attr`` and every binding of the same function
        that other modules under *prefix* imported by name.  Returns the
        number of bindings replaced."""
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(original, name, items)
        replaced = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix
                                   or mod_name.startswith(prefix + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    replaced += 1
        return replaced

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, times in seconds since the tracer
        was created, ordered by start."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: (s.start, s.id)):
                handle.write(json.dumps({
                    "campaign": self.campaign_id, "id": span.id,
                    "parent": span.parent, "name": span.name,
                    "start": round(span.start - self.origin, 9),
                    "end": round(span.end - self.origin, 9),
                    "thread": span.thread, "items": span.items,
                }) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part child spans cover.

    Children may overlap (worker threads run side by side), so the
    covered part is the union of the children's intervals, clipped to
    the parent's.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.duration - covered
    return result


class NameSummary:
    """Every span of one name: count, durations, self times, items."""

    __slots__ = ("count", "durations", "self_s", "items")

    def __init__(self) -> None:
        self.count = 0
        self.durations: List[float] = []
        self.self_s = 0.0
        self.items = 0

    @property
    def total_s(self) -> float:
        return sum(self.durations)


def summarize(spans: Iterable[Span]) -> Dict[str, NameSummary]:
    spans = list(spans)
    own = self_times(spans)
    summary: Dict[str, NameSummary] = {}
    for span in spans:
        entry = summary.get(span.name)
        if entry is None:
            entry = summary[span.name] = NameSummary()
        entry.count += 1
        entry.durations.append(span.duration)
        entry.self_s += own[span.id]
        entry.items += span.items or 0
    return summary
