"""Observability plane: metrics, request traces, structured events.

:class:`Observability` bundles the three concerns every serving layer
needs but none should own:

- a :class:`~repro.obs.metrics.MetricsRegistry` pre-registered with the
  repro metric catalog (request counts by endpoint/namespace/strategy/
  outcome, latency histograms, cache lookups, per-stage fit timings,
  live queue depth, HTTP response codes) rendered at ``GET /v1/metrics``;
- :meth:`Observability.request` — the per-request context manager that
  mints/propagates a ``request_id``, binds a :class:`~repro.obs.trace.Trace`
  into the ambient context (so ``span("fit.walks")`` deep inside a
  strategy lands on the right request), and on exit folds the trace into
  metrics, the event log, and the trace ring;
- an :class:`~repro.obs.events.EventLog` (human or ``--log-json``) with a
  slow-request threshold that dumps the full span tree.

:class:`NullObservability` is the same surface with every hook stubbed —
it is both the "tracing off" mode and the control arm of
``benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager

from .events import (
    EventLog,
    format_event_human,
    format_event_json,
    request_event,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    EXPOSITION_CONTENT_TYPE,
    MetricsRegistry,
)
from .trace import (
    OUTCOME_SEVERITY,
    Span,
    Trace,
    activate,
    annotate,
    current_trace,
    deactivate,
    graft_spans,
    new_request_id,
    record_cache,
    run_in_context,
    set_outcome,
    span,
)

__all__ = [
    "Observability", "NullObservability", "MetricsRegistry", "EventLog",
    "Trace", "Span", "span", "annotate", "set_outcome", "record_cache",
    "current_trace", "run_in_context", "graft_spans", "new_request_id",
    "request_event", "format_event_human",
    "format_event_json", "OUTCOME_SEVERITY",
    "DEFAULT_LATENCY_BUCKETS_MS", "EXPOSITION_CONTENT_TYPE",
]

class Observability:
    """The live observability plane shared by one gateway/process."""

    def __init__(
        self,
        *,
        event_log: EventLog | None = None,
        trace_capacity: int = 512,
        request_id_factory=new_request_id,
    ):
        self.metrics = MetricsRegistry()
        self.event_log = event_log
        self.new_request_id = request_id_factory
        # guarded by: self._trace_lock
        self._traces: deque[dict] = deque(maxlen=trace_capacity)
        self._trace_lock = threading.Lock()
        self._trace_sinks: list = []  # guarded by: self._trace_lock

        m = self.metrics
        self.requests_total = m.counter(
            "repro_requests_total",
            "Requests handled, by endpoint, namespace, strategy, and "
            "cache outcome (warm/cold/coalesced/shed/error).",
            ("endpoint", "namespace", "strategy", "outcome"),
        )
        self.request_latency = m.histogram(
            "repro_request_latency_ms",
            "End-to-end request latency in milliseconds.",
            ("endpoint", "namespace"),
        )
        self.cache_lookups = m.counter(
            "repro_cache_lookups_total",
            "Warm-cache lookups by result (hit/miss).",
            ("namespace", "strategy", "result"),
        )
        self.fit_stage = m.histogram(
            "repro_fit_stage_ms",
            "Cold-fit pipeline stage durations in milliseconds.",
            ("namespace", "strategy", "stage"),
        )
        self.queue_depth = m.gauge(
            "repro_queue_depth",
            "Cold-fit admission queue depth (live, per strategy).",
            ("namespace", "strategy"),
        )
        self.http_responses = m.counter(
            "repro_http_responses_total",
            "HTTP responses served, by path and status code.",
            ("path", "status"),
        )
        self.fleet_workers = m.gauge(
            "repro_fleet_workers",
            "Live fit-worker daemons registered with the fleet coordinator.",
            (),
        )
        self.fleet_dispatch = m.counter(
            "repro_fleet_dispatch_total",
            "Fleet fit dispatches by outcome (ok/fit_error/retry/crash/"
            "timeout/no_workers).",
            ("outcome",),
        )

    # -- request lifecycle --------------------------------------------- #
    @contextmanager
    def request(
        self,
        endpoint: str,
        *,
        namespace: str = "-",
        strategy: str = "-",
        request_id: str | None = None,
    ):
        """Trace one request; yields the bound :class:`Trace`.

        Nested calls (a compare fanning out through rank paths that also
        open contexts) reuse the outer trace rather than double-count.
        """
        outer = current_trace()
        if outer is not None:
            yield outer
            return
        trace = Trace(
            request_id or self.new_request_id(),
            endpoint,
            namespace=namespace,
            strategy=strategy,
            obs=self,
        )
        tokens = activate(trace)
        try:
            yield trace
        except BaseException:
            trace.raise_outcome("error")
            raise
        finally:
            deactivate(tokens)
            trace.finish()
            self._collect(trace)

    def _collect(self, trace: Trace) -> None:
        self.requests_total.labels(
            trace.endpoint, trace.namespace, trace.strategy, trace.outcome
        ).inc()
        self.request_latency.labels(trace.endpoint, trace.namespace).observe(
            trace.duration_ms
        )
        record = trace.to_dict()
        with self._trace_lock:
            self._traces.append(record)
            sinks = list(self._trace_sinks)
        for sink in sinks:
            sink(record)
        if self.event_log is not None:
            self.event_log.emit_request(trace)

    # -- hooks called from trace helpers -------------------------------- #
    def observe_stage(self, trace: Trace, name: str, duration_ms: float) -> None:
        if name.startswith("fit."):
            self.fit_stage.labels(trace.namespace, trace.strategy, name).observe(
                duration_ms
            )

    def record_cache(self, trace: Trace, hit: bool) -> None:
        self.cache_lookups.labels(
            trace.namespace, trace.strategy, "hit" if hit else "miss"
        ).inc()

    # -- standalone hooks ------------------------------------------------ #
    def record_http_response(self, path: str, status: int) -> None:
        self.http_responses.labels(path, str(status)).inc()

    def watch_queue_depth(self, namespace: str, strategy: str, fn) -> None:
        """Export ``fn()`` (live queue depth) as a gauge, lazily read at
        scrape time."""
        self.queue_depth.labels(namespace, strategy).set_function(fn)

    def watch_fleet_workers(self, fn) -> None:
        """Export ``fn()`` (live fleet size) as a gauge, lazily read at
        scrape time."""
        self.fleet_workers.labels().set_function(fn)

    def record_fleet_dispatch(self, outcome: str) -> None:
        self.fleet_dispatch.labels(outcome).inc()

    # -- trace access ---------------------------------------------------- #
    def add_trace_sink(self, sink) -> None:
        """``sink(record: dict)`` is called for every finished trace."""
        with self._trace_lock:
            self._trace_sinks.append(sink)

    def drain_traces(self) -> list[dict]:
        """Remove and return the buffered trace records, oldest first."""
        with self._trace_lock:
            records = list(self._traces)
            self._traces.clear()
        return records

    def render_metrics(self) -> str:
        return self.metrics.render()


class _NullFamily:
    """Accepts any labels/values and drops them."""

    def labels(self, *_, **__):
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_function(self, fn) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class NullObservability:
    """Same surface as :class:`Observability`, every hook a no-op.

    Requests still get ids (callers may echo them) but no trace is bound,
    so ``span()``/``record_cache()`` stay on their no-trace fast path —
    this is the baseline arm of the overhead benchmark.
    """

    def __init__(self, *, request_id_factory=new_request_id, **_):
        self.metrics = MetricsRegistry()
        self.event_log = None
        self.new_request_id = request_id_factory
        null = _NullFamily()
        self.requests_total = self.request_latency = null
        self.cache_lookups = self.fit_stage = null
        self.queue_depth = self.http_responses = null
        self.fleet_workers = self.fleet_dispatch = null

    @contextmanager
    def request(
        self,
        endpoint: str,
        *,
        namespace: str = "-",
        strategy: str = "-",
        request_id: str | None = None,
    ):
        yield None

    def observe_stage(self, trace, name, duration_ms) -> None:
        pass

    def record_cache(self, trace, hit) -> None:
        pass

    def record_http_response(self, path, status) -> None:
        pass

    def watch_queue_depth(self, namespace, strategy, fn) -> None:
        pass

    def watch_fleet_workers(self, fn) -> None:
        pass

    def record_fleet_dispatch(self, outcome) -> None:
        pass

    def add_trace_sink(self, sink) -> None:
        pass

    def drain_traces(self) -> list[dict]:
        return []

    def render_metrics(self) -> str:
        return self.metrics.render()
