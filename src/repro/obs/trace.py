"""Request tracing: contextvar-scoped span trees with zero ambient cost.

A *trace* is one request's record — a ``request_id``, labels (endpoint,
namespace, strategy), a cache outcome, and a tree of timed *spans*
covering the stages the request actually executed (graph build, walk
generation, SGNS, predictor training, artifact pack, predict, ...).

The design constraint is that instrumentation points live in hot code
(:meth:`SelectionService.cache_get`, :meth:`TransferGraphStrategy.fit`, the
router's executors) and must cost ~nothing when nobody is observing.
Everything therefore keys off one :class:`contextvars.ContextVar`:

- :func:`span` returns a context manager that is a no-op unless a trace
  is active (one ``ContextVar.get`` on the fast path);
- :func:`set_outcome` / :func:`record_cache` likewise vanish without an
  active trace;
- the serving layers never hold an observability handle on their hot
  paths — the request context (opened by the gateway) *is* the
  handle.

Worker threads don't inherit contextvars from the event loop, so the
router copies its context before submitting to an executor
(:func:`run_in_context`); spans recorded inside a fit job then attach to
the originating request's trace.  Trace mutation is lock-guarded — the
fit pool and the event loop may append concurrently.
"""

from __future__ import annotations

import contextvars
import threading
import time
import uuid

__all__ = [
    "Span",
    "Trace",
    "span",
    "current_trace",
    "set_outcome",
    "annotate",
    "record_cache",
    "run_in_context",
    "graft_spans",
    "new_request_id",
    "OUTCOME_SEVERITY",
]

#: cache-outcome severity; a trace keeps the most severe outcome any
#: layer reported (a score_batch mixing warm and cold targets is "cold",
#: a coalesced wait that was shed is "shed")
OUTCOME_SEVERITY = {
    "ok": 0,
    "warm": 1,
    "coalesced": 2,
    "cold": 3,
    "error": 4,
    "shed": 5,
}

_current_trace: contextvars.ContextVar["Trace | None"] = \
    contextvars.ContextVar("repro_obs_trace", default=None)
_current_span: contextvars.ContextVar["Span | None"] = \
    contextvars.ContextVar("repro_obs_span", default=None)


def new_request_id() -> str:
    """A fresh opaque request id (128-bit random, 16 hex chars shown)."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed stage; nests under a parent span of the same trace."""

    __slots__ = ("name", "started", "duration_ms", "children")

    def __init__(self, name: str):
        self.name = name
        self.started = time.perf_counter()
        self.duration_ms: float | None = None
        self.children: list[Span] = []

    def finish(self) -> None:
        self.duration_ms = (time.perf_counter() - self.started) * 1e3

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "duration_ms": round(self.duration_ms or 0.0, 3),
        }
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


class Trace:
    """One request's identity, labels, outcome, and span tree."""

    def __init__(
        self,
        request_id: str,
        endpoint: str,
        *,
        namespace: str = "-",
        strategy: str = "-",
        obs=None,
    ):
        self.request_id = request_id
        self.endpoint = endpoint
        self.namespace = namespace
        self.strategy = strategy
        #: the Observability plane collecting this trace (or None)
        self.obs = obs
        self.outcome = "ok"
        self.metadata: dict[str, object] = {}
        self.started_at = time.time()
        self.root = Span(endpoint)
        self._lock = threading.Lock()

    # -- mutation (any thread) ----------------------------------------- #
    def add_child(self, parent: Span, child: Span) -> None:
        with self._lock:
            parent.children.append(child)

    def raise_outcome(self, outcome: str) -> None:
        with self._lock:
            if OUTCOME_SEVERITY.get(outcome, 0) > OUTCOME_SEVERITY.get(self.outcome, 0):
                self.outcome = outcome

    def annotate(self, **fields) -> None:
        with self._lock:
            self.metadata.update(fields)

    def finish(self) -> None:
        self.root.finish()

    # -- views ---------------------------------------------------------- #
    @property
    def duration_ms(self) -> float:
        if self.root.duration_ms is not None:
            return self.root.duration_ms
        return (time.perf_counter() - self.root.started) * 1e3

    def stage_totals(self) -> dict[str, float]:
        """Top-level span name -> summed milliseconds.

        Depth-1 spans are the request's sequential stages (fit stages,
        registry I/O, predict), so for a single-target request their sum
        approximates the request total; nested detail (walks vs SGNS
        inside an embed) stays in the full tree.
        """
        with self._lock:
            totals: dict[str, float] = {}
            for child in self.root.children:
                totals[child.name] = totals.get(child.name, 0.0) + (
                    child.duration_ms or 0.0
                )
        return {name: round(ms, 3) for name, ms in totals.items()}

    def span_tree(self) -> list[dict]:
        with self._lock:
            return [child.to_dict() for child in self.root.children]

    def to_dict(self) -> dict:
        """The full trace record (what ``--trace-out`` writes per line)."""
        out = {
            "request_id": self.request_id,
            "endpoint": self.endpoint,
            "namespace": self.namespace,
            "strategy": self.strategy,
            "outcome": self.outcome,
            "started_at": round(self.started_at, 6),
            "duration_ms": round(self.duration_ms, 3),
            "stages": self.stage_totals(),
            "spans": self.span_tree(),
        }
        if self.metadata:
            out["metadata"] = dict(self.metadata)
        return out


class _ActiveSpan:
    """Context manager recording one span on the active trace."""

    __slots__ = ("name", "_span", "_token")

    def __init__(self, name: str):
        self.name = name
        self._span = None
        self._token = None

    def __enter__(self) -> "Span | None":
        trace = _current_trace.get()
        if trace is None:
            return None
        parent = _current_span.get() or trace.root
        self._span = Span(self.name)
        trace.add_child(parent, self._span)
        self._token = _current_span.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._span is None:
            return
        self._span.finish()
        _current_span.reset(self._token)
        trace = _current_trace.get()
        if trace is not None and trace.obs is not None:
            trace.obs.observe_stage(trace, self.name, self._span.duration_ms)


def span(name: str) -> _ActiveSpan:
    """Time one stage of the active request; no-op without a trace.

    ::

        with span("fit.walks"):
            walks = generate_walks(...)
    """
    return _ActiveSpan(name)


def current_trace() -> Trace | None:
    return _current_trace.get()


def activate(trace: Trace):
    """Bind ``trace`` as the context's active trace; returns the tokens
    (pass them to :func:`deactivate`)."""
    return (_current_trace.set(trace), _current_span.set(trace.root))


def deactivate(tokens) -> None:
    trace_token, span_token = tokens
    _current_span.reset(span_token)
    _current_trace.reset(trace_token)


def set_outcome(outcome: str) -> None:
    """Report a cache outcome for the active request (severity-merged)."""
    trace = _current_trace.get()
    if trace is not None:
        trace.raise_outcome(outcome)


def annotate(**fields) -> None:
    """Attach metadata to the active request's trace; no-op without one."""
    trace = _current_trace.get()
    if trace is not None:
        trace.annotate(**fields)


def record_cache(hit: bool) -> None:
    """Count one warm-cache lookup against the active request's plane."""
    trace = _current_trace.get()
    if trace is not None:
        if hit:
            trace.raise_outcome("warm")
        if trace.obs is not None:
            trace.obs.record_cache(trace, hit)


def graft_spans(records: list[dict]) -> None:
    """Attach span records from another process onto the active trace.

    A remote fit runs ``strategy.fit`` in a worker whose spans cannot
    nest under the parent's contextvar trace; the worker ships
    them back as :meth:`Trace.span_tree` records inside the packed
    payload, and the parent grafts them under its current span so the
    request's trace stays complete.  Grafted durations are re-reported
    to the trace's observability plane (which keeps only ``fit.*``
    stages, exactly as live spans are).  No-op without an active trace.
    """
    trace = _current_trace.get()
    if trace is None or not records:
        return
    parent = _current_span.get() or trace.root

    def build(record: dict) -> Span:
        grafted = Span(record["name"])
        grafted.duration_ms = float(record.get("duration_ms", 0.0))
        grafted.children = [build(c) for c in record.get("children", [])]
        return grafted

    def report(grafted: Span) -> None:
        if trace.obs is not None:
            trace.obs.observe_stage(trace, grafted.name, grafted.duration_ms or 0.0)
        for child in grafted.children:
            report(child)

    for record in records:
        grafted = build(record)
        trace.add_child(parent, grafted)
        report(grafted)


def run_in_context(fn, /, *args):
    """Freeze the calling context into a zero-arg callable for executors.

    ``loop.run_in_executor`` does not propagate contextvars, so spans
    recorded on a worker thread would otherwise detach from the request
    that scheduled the work.  The copy is cheap (~100 ns) and taken even
    without an active trace — branching on trace presence would race
    re-binding.
    """
    ctx = contextvars.copy_context()
    return lambda: ctx.run(fn, *args)
