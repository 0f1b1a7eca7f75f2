"""The serving subsystem: persistent artifacts + warm-start selection.

The paper's premise is that fine-tuning evidence is amortised into a
learned graph so that *selection* is cheap — this package makes that
true operationally:

- :mod:`repro.serving.registry` — the versioned on-disk artifact store
  (fingerprints and pack/unpack live one layer down, in
  :mod:`repro.strategies.fingerprint` / :mod:`repro.strategies.artifacts`);
- :mod:`repro.serving.protocol` — the typed v1 wire protocol every
  entry point (Python, CLI, HTTP) speaks;
- :mod:`repro.serving.service` — :class:`SelectionService`, the LRU
  warm-start facade (one per served
  :class:`~repro.strategies.SelectionStrategy`) caching each fitted
  target's whole :class:`Answer`, and its :class:`ServiceStats` — the
  strategy's one serving record, which its router writes into too;
- :mod:`repro.serving.router` — :class:`AsyncSelectionRouter`, the
  asyncio front-end answering warm requests inline, with single-flight
  fit coalescing, parallel cold fits (in threads, or in worker
  processes over the strategy pack/unpack boundary through
  :mod:`repro.fleet`), and a bounded cold-fit queue with adaptive
  backpressure;
- :mod:`repro.serving.gateway` — :class:`SelectionGateway`, routing
  protocol requests across named namespaces (each a zoo behind a
  spec-keyed strategy map) with per-namespace registry shards;
- :mod:`repro.serving.http` — the dependency-free asyncio HTTP front
  door (``repro serve``): ``/v1/rank``, ``/v1/score_batch``,
  ``/v1/compare``, ``/v1/stats``, ``/v1/healthz``;
- :mod:`repro.serving.compare` — the served evaluation engine behind
  ``/v1/compare`` and ``repro evaluate --served``: per-strategy rank
  correlations, top-k overlap, and the ``BENCH_compare.json`` report
  the CI benchmark gate consumes.

Cross-cutting observability (metrics at ``/v1/metrics``, per-request
traces with fit-stage spans, structured events) lives in
:mod:`repro.obs`; the gateway owns an
:class:`~repro.obs.Observability` plane and every layer below it
reports through ambient trace context.
"""

from repro.strategies.artifacts import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    ArtifactNotFoundError,
    StaleArtifactError,
    pack_fitted,
    unpack_fitted,
)
from repro.strategies.fingerprint import (
    catalog_fingerprint,
    config_fingerprint,
    config_from_dict,
)
from repro.serving.protocol import (
    DEFAULT_COMPARE_TOP_K,
    DEFAULT_NAMESPACE,
    ERROR_CODES,
    PROTOCOL_VERSION,
    CompareRequest,
    CompareResponse,
    ErrorResponse,
    ProtocolError,
    RankRequest,
    RankResponse,
    ScoreBatchRequest,
    ScoreBatchResponse,
    StatsResponse,
    StrategyComparison,
    message_from_json,
)
from repro.serving.compare import (
    build_comparisons,
    ranking_metrics,
    run_served_evaluation,
    served_evaluation,
    write_report,
)
from repro.serving.registry import ArtifactRegistry
from repro.fleet.errors import FitPlaneError, FitTimeoutError, FitWorkerCrashError
from repro.serving.router import AsyncSelectionRouter, QueueFullError
from repro.serving.service import Answer, SelectionService, ServiceStats
from repro.serving.gateway import (
    SelectionGateway,
    UnknownModelError,
    UnknownNamespaceError,
    UnknownStrategyError,
    UnknownTargetError,
)
from repro.serving.http import GatewayHTTPServer

__all__ = [
    "catalog_fingerprint",
    "config_fingerprint",
    "config_from_dict",
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactError",
    "ArtifactNotFoundError",
    "StaleArtifactError",
    "pack_fitted",
    "unpack_fitted",
    "DEFAULT_COMPARE_TOP_K",
    "DEFAULT_NAMESPACE",
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "CompareRequest",
    "CompareResponse",
    "ErrorResponse",
    "ProtocolError",
    "RankRequest",
    "RankResponse",
    "ScoreBatchRequest",
    "ScoreBatchResponse",
    "StatsResponse",
    "StrategyComparison",
    "message_from_json",
    "build_comparisons",
    "ranking_metrics",
    "run_served_evaluation",
    "served_evaluation",
    "write_report",
    "ArtifactRegistry",
    "FitPlaneError",
    "FitTimeoutError",
    "FitWorkerCrashError",
    "AsyncSelectionRouter",
    "QueueFullError",
    "Answer",
    "SelectionService",
    "ServiceStats",
    "SelectionGateway",
    "UnknownModelError",
    "UnknownNamespaceError",
    "UnknownStrategyError",
    "UnknownTargetError",
    "GatewayHTTPServer",
]
