"""Request tracing: trace IDs, span trees, contextvar propagation.

A :class:`Trace` is one request's timeline — a tree of :class:`Span`
nodes (``name, start, dur, shard, pages, status``, seconds relative to
the trace's epoch). The active trace rides a :mod:`contextvars`
variable, so the instrumented seams (``Session.execute_many``, the
sharded fan-out, ``WriteAheadLog.commit``) attach spans without any
parameter threading — and without cost when no trace is active, since
every seam guards on :func:`current_trace` first.

One asyncio caveat drives the server-side usage: ``run_in_executor``
does *not* propagate context, so the serving tier activates the trace
*inside* the executor-run function (see ``repro/serve/server.py``),
which then covers the whole synchronous engine path on that thread.

Trace IDs are 16 hex chars minted client- or server-side; a client may
supply its own (the ``trace`` wire field / ``X-Repro-Trace`` header)
to correlate spans with its logs.
"""

from __future__ import annotations

import contextvars
import os
import time
from contextlib import contextmanager

__all__ = [
    "Span",
    "Trace",
    "current_trace",
    "format_span_tree",
    "mint_trace_id",
    "span",
    "tracing",
]


def mint_trace_id() -> str:
    """A fresh 16-hex-char trace ID."""
    return os.urandom(8).hex()


class Span:
    """One timed node in a trace tree.

    ``start`` is seconds since the owning trace's epoch, ``dur`` the
    span's length in seconds. ``shard``/``pages``/``count``/``status``
    are optional annotations (shard label, page accesses, batch width,
    outcome) serialized only when set.
    """

    __slots__ = ("name", "start", "dur", "shard", "pages", "count",
                 "status", "children")

    def __init__(
        self,
        name: str,
        start: float = 0.0,
        dur: float = 0.0,
        *,
        shard: str | None = None,
        pages: int | None = None,
        count: int | None = None,
        status: str | None = None,
    ) -> None:
        self.name = name
        self.start = start
        self.dur = dur
        self.shard = shard
        self.pages = pages
        self.count = count
        self.status = status
        self.children: list[Span] = []

    def to_dict(self) -> dict:
        """JSON-friendly form; omits unset annotations and empty
        children, rounds times to microseconds."""
        d: dict = {
            "name": self.name,
            "start": round(self.start, 6),
            "dur": round(self.dur, 6),
        }
        if self.shard is not None:
            d["shard"] = self.shard
        if self.pages is not None:
            d["pages"] = self.pages
        if self.count is not None:
            d["count"] = self.count
        if self.status is not None:
            d["status"] = self.status
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    def shifted(self, delta: float) -> "Span":
        """A deep copy with every ``start`` moved by ``delta`` seconds —
        used to graft a batch's shared spans into one request's tree,
        whose epoch is the request's own arrival time."""
        copy = Span(
            self.name, self.start + delta, self.dur,
            shard=self.shard, pages=self.pages, count=self.count,
            status=self.status,
        )
        copy.children = [c.shifted(delta) for c in self.children]
        return copy


class Trace:
    """A request's span tree plus the ID that names it on the wire.

    Spans added while another span is open (via the :meth:`span`
    context manager) nest under it; :meth:`add` records an already
    -measured span retroactively. All times are ``time.perf_counter``
    relative to ``epoch``, so spans created on different threads of one
    process line up.
    """

    __slots__ = ("trace_id", "epoch", "spans", "_stack")

    def __init__(
        self, trace_id: str | None = None, epoch: float | None = None
    ) -> None:
        self.trace_id = str(trace_id) if trace_id else mint_trace_id()
        self.epoch = time.perf_counter() if epoch is None else epoch
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def now(self) -> float:
        """Seconds since this trace's epoch."""
        return time.perf_counter() - self.epoch

    def add(
        self,
        name: str,
        *,
        start: float | None = None,
        dur: float = 0.0,
        shard: str | None = None,
        pages: int | None = None,
        count: int | None = None,
        status: str | None = None,
    ) -> Span:
        """Append a span (under the innermost open span, if any)."""
        node = Span(
            name,
            self.now() if start is None else start,
            dur,
            shard=shard, pages=pages, count=count, status=status,
        )
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.spans).append(node)
        return node

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a timed span for the duration of the ``with`` block.

        The span's status is set to ``"error"`` when the block raises.
        Its duration is measured from its recorded ``start`` (one clock
        read opens the span), so a span always covers its children.
        """
        node = self.add(name, **attrs)
        self._stack.append(node)
        try:
            yield node
        except BaseException:
            node.status = "error"
            raise
        finally:
            node.dur = self.now() - node.start
            if self._stack and self._stack[-1] is node:
                self._stack.pop()

    def to_dict(self) -> dict:
        """``{"id": ..., "spans": [...]}`` — the wire/log form."""
        return {
            "id": self.trace_id,
            "spans": [s.to_dict() for s in self.spans],
        }


_ACTIVE: "contextvars.ContextVar[Trace | None]" = contextvars.ContextVar(
    "repro_active_trace", default=None
)


def current_trace() -> Trace | None:
    """The trace active in this context, or ``None``."""
    return _ACTIVE.get()


@contextmanager
def tracing(trace: Trace | None):
    """Make ``trace`` the active trace for the ``with`` block.

    Passing ``None`` deactivates tracing inside the block.
    """
    token = _ACTIVE.set(trace)
    try:
        yield trace
    finally:
        _ACTIVE.reset(token)


@contextmanager
def span(name: str, **attrs):
    """A span on the active trace, or a no-op when none is active."""
    trace = _ACTIVE.get()
    if trace is None:
        yield None
        return
    with trace.span(name, **attrs) as node:
        yield node


def _format_span(node: dict, indent: int, lines: list[str]) -> None:
    attrs = []
    for key in ("shard", "pages", "count", "status"):
        if key in node:
            attrs.append(f"{key}={node[key]}")
    detail = f"  [{', '.join(attrs)}]" if attrs else ""
    lines.append(
        f"{'  ' * indent}{node.get('name', '?'):<24} "
        f"+{node.get('start', 0.0) * 1e3:8.2f} ms  "
        f"{node.get('dur', 0.0) * 1e3:8.2f} ms{detail}"
    )
    for child in node.get("children", ()):
        _format_span(child, indent + 1, lines)


def format_span_tree(trace_dict: dict) -> str:
    """Render a ``Trace.to_dict()`` payload as an indented text tree
    (the ``repro trace`` CLI view)."""
    lines = [f"trace {trace_dict.get('id', '?')}"]
    for node in trace_dict.get("spans", ()):
        _format_span(node, 1, lines)
    return "\n".join(lines)
