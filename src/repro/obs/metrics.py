"""Zero-dependency metrics: counters, gauges, histograms, Prometheus text.

The registry is deliberately tiny — three metric kinds, optional labels,
fixed-bucket histograms — because the serving tier instruments *coarse*
seams (one increment per coalesced batch, per WAL commit, per shard
fan-out), never per-object hot loops. Increments are plain attribute
updates under the GIL: no lock is taken on the write path, which is the
"lock-cheap" contract — a reader may observe a value mid-update from
another thread, and two racing threads can in principle lose an
increment, but every instrumented seam here is either single-threaded
(the asyncio event loop, one executor thread per pool slot) or coarse
enough that the approximation is invisible next to the work it counts.

Two registries coexist by convention:

* each server owns a private :class:`MetricsRegistry` (admission,
  coalescing, pool, request counters), so two servers in one process —
  the common test topology — never cross-contaminate; and
* one process-global registry (:func:`get_global_registry`) carries the
  storage- and cluster-level series (WAL fsyncs, group-commit batch
  sizes, fan-out latency, failovers, buffer hit ratios) that have no
  natural per-server owner.

``GET /metrics`` renders both, concatenated. Swapping the global
registry for a :class:`NullRegistry` (``set_global_registry``) turns
every instrument site into a no-op for zero-cost benchmark runs; the
module-level :func:`counter`/:func:`gauge`/:func:`histogram` helpers
resolve the global registry per call precisely so the swap takes
effect everywhere at once.
"""

from __future__ import annotations

import bisect
import threading
import weakref
from typing import Callable, Iterable, Sequence

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NullRegistry",
    "SIZE_BUCKETS",
    "counter",
    "gauge",
    "get_global_registry",
    "histogram",
    "set_global_registry",
    "track_buffer",
]

#: The Prometheus text exposition content type served by ``/metrics``.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default buckets for latency histograms (seconds, 0.5 ms – 5 s).
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Default buckets for size/count histograms (batch sizes, page counts).
SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _format_value(value: float) -> str:
    """Prometheus number formatting: integral floats print as integers."""
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r"\"")
    )


def _format_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)
    )
    return "{" + pairs + "}"


class Counter:
    """A monotonically increasing value (or a callback read at scrape).

    Callback-backed counters expose a count that *already exists*
    somewhere (an :class:`~repro.serve.AdmissionQueue` attribute, a
    pool counter) without duplicating the bookkeeping — the single
    source of truth stays where it is and the registry reads it lazily.
    """

    __slots__ = ("_value", "_callback")

    def __init__(self, callback: Callable[[], float] | None = None) -> None:
        self._value = 0
        self._callback = callback

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0 to stay a counter)."""
        self._value += amount

    @property
    def value(self) -> float:
        """Current count (the callback's value when callback-backed)."""
        if self._callback is not None:
            return self._callback()
        return self._value


class Gauge:
    """A value that can go up and down (or a callback read at scrape)."""

    __slots__ = ("_value", "_callback")

    def __init__(self, callback: Callable[[], float] | None = None) -> None:
        self._value = 0
        self._callback = callback

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self._value = value

    def inc(self, amount: float = 1) -> None:
        """Add ``amount``."""
        self._value += amount

    def dec(self, amount: float = 1) -> None:
        """Subtract ``amount``."""
        self._value -= amount

    @property
    def value(self) -> float:
        """Current value (the callback's value when callback-backed)."""
        if self._callback is not None:
            return self._callback()
        return self._value


class Histogram:
    """Fixed-bucket histogram: cumulative ``le`` buckets at exposition.

    Buckets are upper bounds in ascending order; an implicit ``+Inf``
    bucket catches the overflow. ``observe`` is one bisect plus two
    adds — cheap enough for per-batch seams, and the bucket layout is
    fixed at registration so exposition never allocates.
    """

    __slots__ = ("buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: Iterable[float] = LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"buckets must be ascending, got {bounds!r}")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._sum += value
        self._count += 1
        self._counts[bisect.bisect_left(self.buckets, value)] += 1

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def summary(self) -> dict:
        """JSON-friendly view: count, sum, mean, cumulative buckets."""
        cumulative = 0
        buckets = {}
        for le, n in zip(self.buckets, self._counts):
            cumulative += n
            buckets[_format_value(le)] = cumulative
        buckets["+Inf"] = self._count
        return {
            "count": self._count,
            "sum": round(self._sum, 6),
            "mean": round(self._sum / self._count, 6) if self._count else 0.0,
            "buckets": buckets,
        }


class _Family:
    """One named metric and its per-label-set children.

    With no ``labelnames`` the family has a single implicit child and
    forwards ``inc``/``set``/``dec``/``observe``/``value``/``summary``
    to it, so unlabeled metrics read exactly like bare children.
    """

    __slots__ = ("name", "help", "kind", "labelnames", "_children", "_make")

    def __init__(self, name, help_text, kind, labelnames, make_child):
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self._children: dict = {}
        self._make = make_child
        if not self.labelnames:
            self._children[()] = make_child()

    def labels(self, **labelvalues: str):
        """The child metric for one concrete label assignment."""
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make()
        return child

    # -- unlabeled convenience delegation ---------------------------------
    def inc(self, amount: float = 1) -> None:
        """Forward to the unlabeled child."""
        self._children[()].inc(amount)

    def dec(self, amount: float = 1) -> None:
        """Forward to the unlabeled child."""
        self._children[()].dec(amount)

    def set(self, value: float) -> None:
        """Forward to the unlabeled child."""
        self._children[()].set(value)

    def observe(self, value: float) -> None:
        """Forward to the unlabeled child."""
        self._children[()].observe(value)

    @property
    def value(self) -> float:
        """The unlabeled child's value."""
        return self._children[()].value

    def summary(self) -> dict:
        """The unlabeled child's histogram summary."""
        return self._children[()].summary()

    def items(self):
        """``(labelvalues_tuple, child)`` pairs, label-sorted."""
        return sorted(self._children.items())


class MetricsRegistry:
    """Registers metric families by name and renders Prometheus text.

    Registration is idempotent: asking for an existing name returns the
    same family (the first registration's help text and buckets win),
    so instrument sites can re-declare a metric wherever it is used
    without coordinating a central catalogue.
    """

    #: False only on :class:`NullRegistry`; lets instrument sites skip
    #: optional work (building label dicts, timing) when metrics are off.
    enabled = True

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _family(self, name, kind, help_text, labelnames, make_child):
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = self._families[name] = _Family(
                    name, help_text, kind, labelnames, make_child
                )
            elif fam.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {fam.kind}"
                )
            return fam

    def counter(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        callback: Callable[[], float] | None = None,
    ) -> _Family:
        """Register (or fetch) a counter family."""
        if callback is not None and labelnames:
            raise ValueError("callback-backed metrics cannot take labels")
        return self._family(
            name, "counter", help_text, labelnames,
            lambda: Counter(callback),
        )

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        callback: Callable[[], float] | None = None,
    ) -> _Family:
        """Register (or fetch) a gauge family."""
        if callback is not None and labelnames:
            raise ValueError("callback-backed metrics cannot take labels")
        return self._family(
            name, "gauge", help_text, labelnames, lambda: Gauge(callback)
        )

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Iterable[float] = LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> _Family:
        """Register (or fetch) a fixed-bucket histogram family."""
        bounds = tuple(buckets)
        return self._family(
            name, "histogram", help_text, labelnames,
            lambda: Histogram(bounds),
        )

    def render(self) -> str:
        """The registry as Prometheus text exposition format."""
        lines: list[str] = []
        with self._lock:
            families = list(self._families.values())
        for fam in families:
            if fam.help:
                lines.append(f"# HELP {fam.name} {fam.help}")
            lines.append(f"# TYPE {fam.name} {fam.kind}")
            for labelvalues, child in fam.items():
                if fam.kind == "histogram":
                    cumulative = 0
                    for le, n in zip(child.buckets, child._counts):
                        cumulative += n
                        labels = _format_labels(
                            fam.labelnames + ("le",),
                            labelvalues + (_format_value(le),),
                        )
                        lines.append(
                            f"{fam.name}_bucket{labels} {cumulative}"
                        )
                    labels = _format_labels(
                        fam.labelnames + ("le",), labelvalues + ("+Inf",)
                    )
                    lines.append(f"{fam.name}_bucket{labels} {child.count}")
                    plain = _format_labels(fam.labelnames, labelvalues)
                    lines.append(
                        f"{fam.name}_sum{plain} {_format_value(child.sum)}"
                    )
                    lines.append(f"{fam.name}_count{plain} {child.count}")
                else:
                    labels = _format_labels(fam.labelnames, labelvalues)
                    lines.append(
                        f"{fam.name}{labels} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict:
        """JSON-friendly view of every family, for ``/stats`` embedding."""
        out: dict = {}
        with self._lock:
            families = list(self._families.values())
        for fam in families:
            if fam.labelnames:
                value: dict = {}
                for labelvalues, child in fam.items():
                    key = ",".join(
                        f"{n}={v}"
                        for n, v in zip(fam.labelnames, labelvalues)
                    )
                    value[key] = (
                        child.summary()
                        if fam.kind == "histogram"
                        else child.value
                    )
            elif fam.kind == "histogram":
                value = fam.summary()
            else:
                value = fam.value
            out[fam.name] = value
        return out


class _NoopMetric:
    """Shared do-nothing child handed out by :class:`NullRegistry`."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        """No-op."""

    def dec(self, amount: float = 1) -> None:
        """No-op."""

    def set(self, value: float) -> None:
        """No-op."""

    def observe(self, value: float) -> None:
        """No-op."""

    def labels(self, **labelvalues: str) -> "_NoopMetric":
        """Return itself — labels are discarded."""
        return self

    @property
    def value(self) -> float:
        """Always zero."""
        return 0

    def summary(self) -> dict:
        """An empty histogram summary."""
        return {"count": 0, "sum": 0.0, "mean": 0.0, "buckets": {}}


_NOOP = _NoopMetric()


class NullRegistry(MetricsRegistry):
    """A registry whose metrics all discard writes and render nothing.

    Drop-in for :class:`MetricsRegistry` wherever zero instrumentation
    cost is wanted (``repro serve --no-metrics``, the overhead leg of
    ``benchmarks/bench_serve.py``).
    """

    enabled = False

    def counter(self, name, help_text="", labelnames=(), callback=None):
        """Return the shared no-op metric."""
        return _NOOP

    def gauge(self, name, help_text="", labelnames=(), callback=None):
        """Return the shared no-op metric."""
        return _NOOP

    def histogram(self, name, help_text="", buckets=(), labelnames=()):
        """Return the shared no-op metric."""
        return _NOOP

    def render(self) -> str:
        """Always empty."""
        return ""

    def snapshot(self) -> dict:
        """Always empty."""
        return {}


_global_registry: MetricsRegistry = MetricsRegistry()


def get_global_registry() -> MetricsRegistry:
    """The process-global registry carrying storage/cluster series."""
    return _global_registry


def set_global_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (e.g. for a :class:`NullRegistry`);
    returns the previous one so callers can restore it."""
    global _global_registry
    previous = _global_registry
    _global_registry = registry
    return previous


def counter(name, help_text="", labelnames=(), callback=None):
    """``get_global_registry().counter(...)`` — resolved per call so a
    registry swap takes effect at every instrument site at once."""
    return _global_registry.counter(name, help_text, labelnames, callback)


def gauge(name, help_text="", labelnames=(), callback=None):
    """``get_global_registry().gauge(...)``, resolved per call."""
    return _global_registry.gauge(name, help_text, labelnames, callback)


def histogram(name, help_text="", buckets=LATENCY_BUCKETS, labelnames=()):
    """``get_global_registry().histogram(...)``, resolved per call."""
    return _global_registry.histogram(name, help_text, buckets, labelnames)


# -- buffer collection -----------------------------------------------------
#
# BufferManager.access() is the hottest loop in the system; it must not
# pay one registry call per page touch. Instead every live buffer is
# tracked in a WeakSet and its counters are *summed at scrape time*;
# totals from buffers that have since been garbage-collected are folded
# into a retirement ledger so the exposed counters stay monotone across
# session close/reopen.

_TRACKED_BUFFERS: "weakref.WeakSet" = weakref.WeakSet()
_RETIRED_TOTALS = {"accesses": 0, "hits": 0, "faults": 0, "evictions": 0}


def retire_buffer_stats(stats) -> None:
    """Fold a ``BufferStats``'s counters into the retirement ledger.

    Called when a buffer is garbage-collected and by
    ``BufferManager.reset_stats`` (which zeroes the live object), so
    the global cumulative series never move backwards.
    """
    for field in _RETIRED_TOTALS:
        _RETIRED_TOTALS[field] += getattr(stats, field, 0)


def track_buffer(buffer) -> None:
    """Register a live ``BufferManager`` for scrape-time collection.

    Called from ``BufferManager.__init__``; costs nothing per access.
    The buffer's final counters are folded into a retirement ledger
    when it is garbage-collected, keeping the global series monotone.
    """
    _TRACKED_BUFFERS.add(buffer)
    weakref.finalize(buffer, retire_buffer_stats, buffer.stats)


def buffer_total(field: str) -> int:
    """Sum ``field`` over live tracked buffers plus retired totals."""
    live = sum(getattr(b.stats, field, 0) for b in _TRACKED_BUFFERS)
    return _RETIRED_TOTALS.get(field, 0) + live


def live_buffer_count() -> int:
    """How many ``BufferManager`` instances are currently tracked."""
    return len(_TRACKED_BUFFERS)


def register_buffer_collectors(registry: MetricsRegistry) -> None:
    """Install the scrape-time buffer series on ``registry``.

    Idempotent; the global registry gets them at import, but a server
    that owns a private registry may want the buffer view too.
    """
    registry.counter(
        "repro_buffer_accesses_total",
        "Page-buffer lookups across all live (and retired) buffers.",
        callback=lambda: buffer_total("accesses"),
    )
    registry.counter(
        "repro_buffer_hits_total",
        "Page-buffer hits (page already resident).",
        callback=lambda: buffer_total("hits"),
    )
    registry.counter(
        "repro_buffer_faults_total",
        "Page-buffer misses that went to disk.",
        callback=lambda: buffer_total("faults"),
    )
    registry.counter(
        "repro_buffer_evictions_total",
        "LRU evictions across all buffers.",
        callback=lambda: buffer_total("evictions"),
    )
    registry.gauge(
        "repro_buffer_hit_ratio",
        "Aggregate hit ratio over all buffers (0 when unused).",
        callback=lambda: (
            buffer_total("hits") / max(buffer_total("accesses"), 1)
        ),
    )
    registry.gauge(
        "repro_buffers_live",
        "BufferManager instances currently alive in this process.",
        callback=live_buffer_count,
    )


register_buffer_collectors(_global_registry)
