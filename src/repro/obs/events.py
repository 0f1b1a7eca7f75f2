"""Request event records and their human / JSON renderings.

One *event* is the flat, greppable record of one request — the thing
``repro serve --log-json`` emits per line and the human log formats per
line.  Every event is built by :func:`request_event` from a finished
trace, so both renderings carry the same fields.

Rendering is split from emission: :class:`EventLog` owns the sink
(stream + json flag + slow threshold), the ``format_*`` helpers are pure
so tests can golden them.
"""

from __future__ import annotations

import json
import sys
import threading

from .trace import Trace

__all__ = [
    "EventLog",
    "request_event",
    "format_event_human",
    "format_event_json",
]


def request_event(trace: Trace) -> dict:
    """The per-request event record derived from a finished trace."""
    event = {
        "event": "request",
        "request_id": trace.request_id,
        "endpoint": trace.endpoint,
        "namespace": trace.namespace,
        "strategy": trace.strategy,
        "outcome": trace.outcome,
        "duration_ms": round(trace.duration_ms, 3),
        "stages": trace.stage_totals(),
    }
    if trace.metadata:
        event.update({k: v for k, v in trace.metadata.items() if k not in event})
    return event


def format_event_json(event: dict) -> str:
    return json.dumps(event, sort_keys=True, default=str)


def _format_stages(stages: dict[str, float]) -> str:
    return " ".join(f"{name}={ms:.1f}ms" for name, ms in sorted(stages.items()))


def format_event_human(event: dict) -> str:
    """One aligned line per event, span details appended when present."""
    parts = [
        f"[{event.get('outcome', '-'):>9}]",
        f"{event.get('endpoint', '-')}",
        f"ns={event.get('namespace', '-')}",
        f"strategy={event.get('strategy', '-')}",
        f"rid={event.get('request_id', '-')}",
        f"{event.get('duration_ms', 0.0):.1f}ms",
    ]
    stages = event.get("stages") or {}
    if stages:
        parts.append(f"({_format_stages(stages)})")
    line = " ".join(parts)
    spans = event.get("spans")
    if spans:
        line += "\n" + format_span_tree(spans)
    return line


def format_span_tree(spans: list[dict], indent: int = 1) -> str:
    """Indented one-span-per-line rendering of a nested span list."""
    lines = []
    for node in spans:
        lines.append(
            f"{'  ' * indent}- {node['name']} "
            f"{node.get('duration_ms', 0.0):.2f}ms"
        )
        children = node.get("children")
        if children:
            lines.append(format_span_tree(children, indent + 1))
    return "\n".join(lines)


class EventLog:
    """Serialises events to a stream, in human or JSON form.

    ``slow_ms`` sets the slow-request threshold: a request event slower
    than it carries its full span tree (JSON gets a ``spans`` key, the
    human form an indented dump), so the one trace you need to explain a
    200 ms-vs-2 s fit is in the log without tracing everything verbosely.
    """

    def __init__(
        self, stream=None, *, json_lines: bool = False, slow_ms: float = 1000.0
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.json_lines = json_lines
        self.slow_ms = slow_ms
        self._lock = threading.Lock()

    def emit(self, event: dict) -> None:
        text = (
            format_event_json(event) if self.json_lines else format_event_human(event)
        )
        with self._lock:
            print(text, file=self.stream, flush=True)

    def emit_request(self, trace: Trace) -> None:
        event = request_event(trace)
        if trace.duration_ms > self.slow_ms:
            event["slow"] = True
            event["spans"] = trace.span_tree()
        self.emit(event)
