"""Structured tracing: spans and events in a bounded ring buffer.

A :class:`Tracer` records *finished* spans — one per instrumented
operation (a syscall, an ITFS check, a broker request) — into a ring
buffer of fixed capacity, so tracing can stay always-on without unbounded
growth. Spans nest: each thread keeps its own open-span stack, and each
record carries its parent's id, letting :meth:`Tracer.format_tree`
reconstruct the call structure (``syscall:read`` → ``itfs:check`` → …).

The clock is injectable: production uses ``time.perf_counter``, tests
inject a deterministic counter so span timings are reproducible.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class SpanRecord:
    """One finished span (or point event, when ``end == start``)."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float = 0.0
    status: str = "ok"
    error: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)
    events: List[Tuple[float, str, Dict[str, object]]] = field(
        default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id, "parent_id": self.parent_id,
            "name": self.name, "start": self.start, "end": self.end,
            "duration": self.duration, "status": self.status,
            "error": self.error, "attrs": dict(self.attrs),
            "events": [{"time": t, "name": n, "attrs": dict(a)}
                       for t, n, a in self.events],
        }


class Span:
    """Handle on an open span; returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self.record = record

    def set(self, **attrs) -> "Span":
        self.record.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs) -> None:
        self.record.events.append((self._tracer._clock(), name, attrs))

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc is not None:
            self.record.status = "error"
            self.record.error = f"{exc_type.__name__}: {exc}"
        self._tracer._finish(self.record)
        return False  # never swallow


class _OpenSpans(threading.local):
    """One thread's stack of open spans, innermost last."""

    def __init__(self) -> None:
        self.stack: List[SpanRecord] = []


class Tracer:
    """Ring-buffered span recorder.

    Attributes:
        capacity: maximum retained finished spans (oldest evicted first).
        enabled: when False, :meth:`span` returns a no-op handle.
    """

    def __init__(self, capacity: int = 4096,
                 clock: Optional[Callable[[], float]] = None,
                 enabled: bool = True):
        self.capacity = capacity
        self.enabled = enabled
        self._clock = clock or time.perf_counter
        self._ids = itertools.count(1)
        self._finished: deque = deque(maxlen=capacity)
        self._open = _OpenSpans()
        self.spans_started = 0
        self.spans_dropped = 0

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """Open a span; use as a context manager.

        The parent is the innermost span still open on this thread, so
        nesting falls out of ordinary ``with`` block structure.
        """
        if not self.enabled:
            return _NOOP_SPAN
        stack = self._open.stack
        record = SpanRecord(span_id=next(self._ids),
                            parent_id=stack[-1].span_id if stack else None,
                            name=name, start=self._clock(), attrs=dict(attrs))
        stack.append(record)
        self.spans_started += 1
        return Span(self, record)

    def event(self, name: str, **attrs) -> None:
        """Record a point-in-time event as a zero-duration span."""
        if not self.enabled:
            return
        now = self._clock()
        stack = self._open.stack
        parent = stack[-1].span_id if stack else None
        self._store(SpanRecord(span_id=next(self._ids), parent_id=parent,
                               name=name, start=now, end=now,
                               attrs=dict(attrs)))

    def _finish(self, record: SpanRecord) -> None:
        record.end = self._clock()
        # pop through abandoned children (an exception may have skipped them)
        stack = self._open.stack
        while stack:
            if stack.pop().span_id == record.span_id:
                break
        self._store(record)

    def _store(self, record: SpanRecord) -> None:
        if len(self._finished) == self._finished.maxlen:
            self.spans_dropped += 1
        self._finished.append(record)

    # -- reading -----------------------------------------------------------

    @property
    def records(self) -> List[SpanRecord]:
        return list(self._finished)

    def __len__(self) -> int:
        return len(self._finished)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self._finished)

    def filter(self, name_prefix: str = "",
               status: Optional[str] = None) -> List[SpanRecord]:
        return [r for r in self._finished
                if r.name.startswith(name_prefix)
                and (status is None or r.status == status)]

    # -- export ------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per line, oldest first."""
        return "\n".join(json.dumps(r.to_dict(), sort_keys=True)
                         for r in self._finished)

    def format_tree(self, limit: Optional[int] = None) -> str:
        """Indented tree over the retained spans.

        Spans whose parent was evicted from the ring render as roots.
        ``limit`` keeps only the most recent N spans.
        """
        records = self.records
        if limit is not None:
            records = records[-limit:]
        if not records:
            return "(no spans recorded)"
        present = {r.span_id for r in records}
        children: Dict[Optional[int], List[SpanRecord]] = {}
        for r in records:
            parent = r.parent_id if r.parent_id in present else None
            children.setdefault(parent, []).append(r)
        lines: List[str] = []

        def render(record: SpanRecord, depth: int) -> None:
            flag = "" if record.status == "ok" else f"  !! {record.error}"
            attrs = " ".join(f"{k}={v}" for k, v in record.attrs.items())
            attrs = f"  [{attrs}]" if attrs else ""
            lines.append(f"{'  ' * depth}{record.name} "
                         f"({record.duration * 1e6:.1f}us){attrs}{flag}")
            for _, event_name, event_attrs in record.events:
                extra = " ".join(f"{k}={v}" for k, v in event_attrs.items())
                lines.append(f"{'  ' * (depth + 1)}* {event_name}"
                             f"{'  ' + extra if extra else ''}")
            for child in children.get(record.span_id, []):
                render(child, depth + 1)

        for root in children.get(None, []):
            render(root, 0)
        return "\n".join(lines)

    def reset(self) -> None:
        self._finished.clear()
        self._open = _OpenSpans()
        self.spans_started = 0
        self.spans_dropped = 0


class _NoopSpan:
    """Shared do-nothing span for disabled tracers."""

    __slots__ = ()

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def event(self, name: str, **attrs) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()
