"""Dependency-free metrics: counters, gauges, histograms, exposition.

A tiny Prometheus-compatible metrics core — the serving stack must stay
numpy-only, so this implements exactly the subset the observability
plane needs:

- three instrument kinds (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram`) addressed through a :class:`MetricsRegistry`;
- every instrument is a *family* keyed by a fixed label-name tuple;
  ``family.labels(a, b)`` (or ``family.labels(ns="x", ...)``) returns
  the child series, created on first use;
- all mutation is thread-safe: one lock per family guards child
  creation, and each child guards its own values (fit workers and the
  event loop record concurrently);
- :meth:`MetricsRegistry.render` emits the Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` / sorted series; histograms render
  cumulative ``_bucket{le=...}`` plus ``_sum``/``_count``), which is
  what ``GET /v1/metrics`` serves.

Counters and gauges additionally accept a zero-arg callback
(:meth:`Counter.set_function`, :meth:`Gauge.set_function`) evaluated at
render time — how queue depth and cache lookups are exported from the
serving layer's own record without a second sample per event.

A :class:`Histogram` on :data:`PERCENTILE_BUCKETS_MS` is also the
latency type of each strategy's serving record
(:class:`repro.serving.ServiceStats`): it reads percentiles from its
bucket counts, which add (``merge``) and subtract (``since``) exactly.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from itertools import accumulate

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "PERCENTILE_BUCKETS_MS",
    "EXPOSITION_CONTENT_TYPE",
]

#: the content type Prometheus scrapers expect from a metrics endpoint
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: fixed exposition buckets (milliseconds), roughly log-spaced from warm
#: in-process answers (0.05-0.1 ms) through multi-second cold TG fits;
#: few of them, because the text format prints every bucket of every
#: series
DEFAULT_LATENCY_BUCKETS_MS = (
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
    10000.0,
    30000.0,
)

#: the in-process percentile layout (milliseconds): 0.001 * 2^(i/8) for
#: i = 0..208, i.e. 1 us to ~67 s with each bucket 9.1% wider than the
#: last; the floor sits below warm inline answers (a few us)
PERCENTILE_BUCKETS_MS = tuple(0.001 * 2 ** (i / 8) for i in range(209))

_ESCAPES = str.maketrans({"\\": r"\\", '"': r"\"", "\n": r"\n"})


def _format_value(value: float) -> str:
    """Prometheus sample formatting: integers bare, floats shortest-repr."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value != int(value):
        return repr(value)
    return str(int(value))


def _format_series(
    name: str,
    labelnames: tuple[str, ...],
    labelvalues: tuple[str, ...],
    extra: tuple[tuple[str, str], ...] = (),
) -> str:
    pairs = [*zip(labelnames, labelvalues), *extra]
    if not pairs:
        return name
    inner = ",".join(f'{k}="{str(v).translate(_ESCAPES)}"' for k, v in pairs)
    return f"{name}{{{inner}}}"


class _Family:
    """Shared family behaviour: label-keyed children, render plumbing."""

    kind: str

    def __init__(self, name: str, help_text: str, labelnames: tuple[str, ...]):
        self.name = name
        self.help = help_text
        self.labelnames = tuple(str(n) for n in labelnames)
        self._children: dict[tuple[str, ...], object] = {}  # guarded by: self._lock
        self._lock = threading.Lock()

    def _make_child(self):
        raise NotImplementedError

    def labels(self, *values, **kwvalues):
        """The child series for one label-value assignment."""
        if kwvalues:
            if values:
                raise ValueError(
                    "pass label values either positionally or by name, not both"
                )
            try:
                values = tuple(kwvalues.pop(n) for n in self.labelnames)
            except KeyError as exc:
                raise ValueError(
                    f"metric {self.name} is missing label {exc.args[0]!r}"
                ) from None
            if kwvalues:
                raise ValueError(
                    f"metric {self.name} got unexpected label(s) {sorted(kwvalues)}"
                )
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name} takes {len(self.labelnames)} label "
                f"value(s) {list(self.labelnames)}, got {len(key)}"
            )
        # Lock-free fast path: dict reads are atomic under the GIL and a
        # missed racing insert only falls through to the locked setdefault.
        child = self._children.get(key)  # analyze: ignore[lock-discipline]
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    def _sorted_children(self):
        with self._lock:
            return sorted(self._children.items())

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key, child in self._sorted_children():
            lines.extend(child.render_series(self.name, self.labelnames, key))
        return lines


class Counter:
    """A monotonically increasing sample (one labeled series)."""

    __slots__ = ("_value", "_fn", "_lock")

    def __init__(self):
        self._value = 0.0
        self._fn = None
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    def set_function(self, fn) -> None:
        """Evaluate ``fn()`` (itself monotonic) at render time instead of
        a stored value."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        return float(fn())

    def render_series(self, name, labelnames, labelvalues):
        return [
            f"{_format_series(name, labelnames, labelvalues)} "
            f"{_format_value(self.value)}"
        ]


class Gauge:
    """A sample that can go up, down, or track a live callback."""

    __slots__ = ("_value", "_fn", "_lock")

    def __init__(self):
        self._value = 0.0
        self._fn = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn) -> None:
        """Evaluate ``fn()`` at render time instead of a stored value."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        return float(fn())

    def render_series(self, name, labelnames, labelvalues):
        return [
            f"{_format_series(name, labelnames, labelvalues)} "
            f"{_format_value(self.value)}"
        ]


class Histogram:
    """Fixed-bucket histogram (cumulative ``le`` buckets + sum/count/max).

    Bucket ``i`` counts values in ``(buckets[i-1], buckets[i]]``; the
    last counts the rest (+Inf).  ``percentiles`` reads nearest-rank
    percentiles back from the counts, and ``merge``/``since`` add and
    subtract whole histograms over the same layout.
    """

    __slots__ = ("buckets", "_counts", "_sum", "_count", "_max", "_lock")

    def __init__(self, buckets: tuple[float, ...] = PERCENTILE_BUCKETS_MS):
        self.buckets = buckets
        self._counts = [0] * (len(buckets) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value

    def snapshot(self) -> tuple[list[int], float, int]:
        """(per-bucket counts, sum, count) under one lock acquisition."""
        return self._state()[:3]

    def _state(self) -> tuple[list[int], float, int, float]:
        with self._lock:
            return list(self._counts), self._sum, self._count, self._max

    def _from_state(self, counts, total, count, top) -> "Histogram":
        out = Histogram(self.buckets)
        out._counts, out._sum, out._count, out._max = counts, total, count, top
        return out

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def max(self) -> float:
        """The largest observed value (0.0 when empty)."""
        with self._lock:
            return self._max

    def copy(self) -> "Histogram":
        return self._from_state(*self._state())

    def merge(self, other: "Histogram") -> "Histogram":
        """Add ``other``'s samples into this histogram; returns self."""
        if other.buckets != self.buckets:
            raise ValueError("histograms have different bucket layouts")
        counts, total, count, top = other._state()
        with self._lock:
            self._counts = [a + b for a, b in zip(self._counts, counts)]
            self._sum += total
            self._count += count
            self._max = max(self._max, top)
        return self

    def since(self, earlier: "Histogram") -> "Histogram":
        """A new histogram of what was observed after ``earlier`` (a copy).

        Counts, sum and count subtract exactly.  The maximum of the
        later samples alone is not recorded, so the delta's ``max`` is
        its p100 read: the upper edge of its highest non-empty bucket,
        capped at this histogram's max.
        """
        if earlier.buckets != self.buckets:
            raise ValueError("histograms have different bucket layouts")
        counts, total, count, top = self._state()
        old_counts, old_total, old_count, _ = earlier._state()
        counts = [a - b for a, b in zip(counts, old_counts)]
        delta = self._from_state(counts, total - old_total, count - old_count, top)
        (delta._max,) = delta.percentiles((100,))
        return delta

    def percentiles(self, qs) -> tuple[float, ...]:
        """Nearest-rank percentiles (``qs`` in 0-100) from the counts.

        Rank ``ceil(q * count / 100)`` reads as the upper edge of the
        bucket holding it, capped at the observed max: never below the
        exact nearest-rank value, never more than one bucket above it,
        and exact for a histogram of one repeated value.  An empty
        histogram reads 0.0.
        """
        counts, _, count, top = self._state()
        if not count:
            return tuple(0.0 for _ in qs)
        cumulative = list(accumulate(counts))
        out = []
        for q in qs:
            index = bisect_left(cumulative, max(1, math.ceil(q * count / 100)))
            edge = self.buckets[index] if index < len(self.buckets) else top
            out.append(min(edge, top))
        return tuple(out)

    def render_series(self, name, labelnames, labelvalues):
        counts, total, count = self.snapshot()
        lines, cumulative = [], 0
        bounds = [*(_format_value(b) for b in self.buckets), "+Inf"]
        for bound, bucket_count in zip(bounds, counts):
            cumulative += bucket_count
            series = _format_series(
                f"{name}_bucket", labelnames, labelvalues, (("le", bound),)
            )
            lines.append(f"{series} {cumulative}")
        lines.append(
            f"{_format_series(name + '_sum', labelnames, labelvalues)} "
            f"{_format_value(total)}"
        )
        lines.append(
            f"{_format_series(name + '_count', labelnames, labelvalues)} {count}"
        )
        return lines


class _CounterFamily(_Family):
    kind = "counter"

    def _make_child(self):
        return Counter()


class _GaugeFamily(_Family):
    kind = "gauge"

    def _make_child(self):
        return Gauge()


class _HistogramFamily(_Family):
    kind = "histogram"

    def __init__(self, name, help_text, labelnames, buckets):
        super().__init__(name, help_text, labelnames)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")

    def _make_child(self):
        return Histogram(self.buckets)


class MetricsRegistry:
    """A named collection of metric families with text exposition.

    Families are create-once: re-registering a name returns the existing
    family if the kind and label names match and raises otherwise (two
    subsystems silently sharing a name with different schemas would
    corrupt the exposition).
    """

    def __init__(self):
        self._families: dict[str, _Family] = {}  # guarded by: self._lock
        self._lock = threading.Lock()

    def _register(
        self,
        factory,
        name: str,
        help_text: str,
        labelnames: tuple[str, ...],
        **kwargs,
    ):
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                wanted = factory(name, help_text, labelnames, **kwargs)
                if (
                    type(existing) is not type(wanted)
                    or existing.labelnames != wanted.labelnames
                ):
                    raise ValueError(
                        f"metric {name!r} already registered with a "
                        f"different kind or label set"
                    )
                return existing
            family = factory(name, help_text, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str, labelnames: tuple[str, ...] = ()
    ) -> _CounterFamily:
        return self._register(_CounterFamily, name, help_text, tuple(labelnames))

    def gauge(
        self, name: str, help_text: str, labelnames: tuple[str, ...] = ()
    ) -> _GaugeFamily:
        return self._register(_GaugeFamily, name, help_text, tuple(labelnames))

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> _HistogramFamily:
        return self._register(
            _HistogramFamily, name, help_text, tuple(labelnames), buckets=buckets
        )

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        with self._lock:
            families = sorted(self._families.items())
        lines: list[str] = []
        for _, family in families:
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")
