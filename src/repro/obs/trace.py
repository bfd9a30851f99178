"""Lightweight cross-layer tracing: spans with ambient propagation.

Mirrors the ``deadline_scope`` idiom from :mod:`repro.reliability`: a
thread-local stack carries the *current* span, ``span_scope`` pushes a
child (parented on the ambient span, or on an explicit wire context), and
everything in between — pool channels, the chunk store, the daemon —
nests without plumbing a context argument through every call.

Three propagation boundaries are covered:

* **thread hop** — :func:`capture_context` at submit time plus
  ``span_scope(..., parent=ctx)`` inside the task joins a writer-pool
  worker's span onto the submitting thread's trace (see
  :meth:`repro.service.pool.PoolChannel.submit`);
* **wire hop** — the client puts :func:`wire_context` into the request
  body under ``"trace"``; the daemon opens its handling span parented on
  it, so a daemon-side span tree joins the client's trace id.  The field
  rides the body dict itself, so it survives both transports *and* the
  reconnect-with-stable-request-id path (the socket client rebuilds the
  frame from the same body on every attempt);
* **process boundary** — spans are emitted to the process sink
  (:func:`set_trace_sink`), a bounded JSONL file under the store when a
  daemon is serving, an in-memory ring in tests.

Cost model: with no sink installed and no ambient/parent context,
``span_scope`` yields ``None`` after two reads — tracing off is near
free.  Span creation without a sink (e.g. a request carrying a parent
context into an unsinked daemon) still propagates ids but emits nothing.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

#: Request-body key carrying the trace context over the control plane.
TRACE_KEY = "trace"

_AMBIENT = threading.local()
_SINK: Optional["TraceSink"] = None
_SINK_LOCK = threading.Lock()

# Span ids only need collision resistance within one trace log, not
# cryptographic strength; ``getrandbits`` is ~10x cheaper than ``uuid4``
# (which reads os.urandom), and span creation sits on the hot save path.
_ID_RNG = random.Random()


def new_trace_id() -> str:
    return f"{_ID_RNG.getrandbits(64):016x}"


def new_span_id() -> str:
    return f"{_ID_RNG.getrandbits(32):08x}"


@dataclass
class Span:
    """One timed operation; ``attrs`` are free-form JSON-safe fields."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    start: float = 0.0
    end: Optional[float] = None
    status: str = "ok"
    attrs: Dict[str, object] = field(default_factory=dict)

    def context(self) -> Dict[str, str]:
        """Wire/thread-portable reference to this span."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else time.time()) - self.start

    def to_record(self) -> dict:
        """JSONL record (schema documented in docs/FORMATS.md)."""
        return {
            "kind": "span",
            "name": self.name,
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "duration_ms": round(self.duration * 1000.0, 3),
            "status": self.status,
            "attrs": self.attrs,
        }


class TraceSink:
    """Destination for finished spans."""

    def emit(self, span: Span) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class MemoryTraceSink(TraceSink):
    """Bounded in-memory ring of span records (tests, `status` surfaces)."""

    def __init__(self, capacity: int = 1024):
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=capacity)

    def emit(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span.to_record())

    def records(self) -> List[dict]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()


def set_trace_sink(sink: Optional[TraceSink]) -> Optional[TraceSink]:
    """Install the process trace sink; returns the previous one."""
    global _SINK
    with _SINK_LOCK:
        previous = _SINK
        _SINK = sink
    return previous


def tracing_enabled() -> bool:
    return _SINK is not None


def _stack() -> list:
    stack = getattr(_AMBIENT, "stack", None)
    if stack is None:
        stack = _AMBIENT.stack = []
    return stack


def current_span() -> Optional[Span]:
    stack = getattr(_AMBIENT, "stack", None)
    return stack[-1] if stack else None


def current_trace_id() -> Optional[str]:
    span = current_span()
    return span.trace_id if span is not None else None


def capture_context() -> Optional[Dict[str, str]]:
    """Ambient span context for cross-thread handoff, or None."""
    span = current_span()
    return span.context() if span is not None else None


def wire_context() -> Dict[str, str]:
    """Context to send over the wire: ambient if present, else a new root.

    A client with no ambient span still originates a trace id here, so the
    daemon-side span tree of every request is joinable to its origin.
    """
    ctx = capture_context()
    if ctx is not None:
        return ctx
    return {"trace_id": new_trace_id(), "span_id": new_span_id()}


def parse_context(value) -> Optional[Dict[str, str]]:
    """Validate a wire-received trace context; None when absent/malformed."""
    if not isinstance(value, dict):
        return None
    trace_id = value.get("trace_id")
    if not isinstance(trace_id, str) or not trace_id:
        return None
    span_id = value.get("span_id")
    return {
        "trace_id": trace_id,
        "span_id": span_id if isinstance(span_id, str) else "",
    }


@contextmanager
def span_scope(
    name: str,
    parent: Optional[Dict[str, str]] = None,
    **attrs,
) -> Iterator[Optional[Span]]:
    """Open a span: child of ``parent`` (wire ctx) or the ambient span.

    Yields the :class:`Span` (mutate ``span.attrs`` freely) — or ``None``
    on the fast path when tracing is entirely off (no sink, no ambient
    span, no explicit parent).
    """
    ambient = current_span()
    if _SINK is None and ambient is None and parent is None:
        yield None
        return
    if parent is not None and parent.get("trace_id"):
        trace_id = parent["trace_id"]
        parent_id: Optional[str] = parent.get("span_id") or None
    elif ambient is not None:
        trace_id = ambient.trace_id
        parent_id = ambient.span_id
    else:
        trace_id = new_trace_id()
        parent_id = None
    span = Span(
        name=name,
        trace_id=trace_id,
        span_id=new_span_id(),
        parent_id=parent_id,
        start=time.time(),
        attrs=dict(attrs),
    )
    stack = _stack()
    stack.append(span)
    try:
        yield span
    except BaseException:
        span.status = "error"
        raise
    finally:
        stack.pop()
        span.end = time.time()
        sink = _SINK
        if sink is not None:
            try:
                sink.emit(span)
            except Exception:  # noqa: BLE001 - tracing must never break work
                pass


def traced(
    fn: Callable[[], None],
    name: str,
    parent: Optional[Dict[str, str]],
    **attrs,
) -> Callable[[], None]:
    """Wrap a thunk so it runs under a span parented on ``parent``.

    Used at thread-hop boundaries (writer-pool submit): capture the
    context on the submitting thread, reattach on the worker.
    """

    def run() -> None:
        with span_scope(name, parent=parent, **attrs):
            fn()

    return run


__all__ = [
    "TRACE_KEY",
    "MemoryTraceSink",
    "Span",
    "TraceSink",
    "capture_context",
    "current_span",
    "current_trace_id",
    "new_span_id",
    "new_trace_id",
    "parse_context",
    "set_trace_sink",
    "span_scope",
    "traced",
    "tracing_enabled",
    "wire_context",
]
