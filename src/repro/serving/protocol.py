"""The v1 wire protocol: typed request/response messages for selection.

Every way into the serving layer — the in-process Python API
(:meth:`SelectionService.handle`), the async router, the multi-tenant
:class:`~repro.serving.gateway.SelectionGateway`, the CLI, and the HTTP
front door — speaks these message types, so the paths cannot diverge:
a response is *constructed* in exactly one place (the ``build``
classmethods here) regardless of how the request arrived.

Messages are frozen dataclasses with strict ``to_json``/``from_json``
round-trips:

- unknown fields, missing required fields, and wrong types all raise
  :class:`ProtocolError`;
- validation messages are written for clients: they name the offending
  field and the expectation, never internal state, stack frames, or
  server paths;
- ``to_json(from_json(text))`` is byte-stable for every valid message
  (keys are sorted, floats use Python's shortest round-trip repr), so
  rankings served over the wire compare byte-identical to in-process
  ones.

Versioning rule: the ``v1`` protocol is *additive-only* — new optional
fields may appear in responses, but existing fields never change type or
meaning, and requests never grow new required fields.  Breaking changes
get a ``/v2`` prefix and a new module.

The optional ``strategy`` field on :class:`RankRequest` /
:class:`ScoreBatchRequest` (and echoed on their responses) is the
protocol's first additive growth under that rule: omitted, requests
route to the endpoint's default strategy and the serialised bytes are
identical to the pre-strategy protocol; present, it names a strategy
spec (``"tg:lr,n2v,all"``, ``"lr:all+logme"``, ``"logme"``, ...) in the
serving namespace's strategy map.  Responses carry the field only when
the request did, so default-strategy traffic stays byte-stable.

The second additive growth is the :class:`CompareRequest` /
:class:`CompareResponse` pair behind ``POST /v1/compare``: one target
fanned concurrently across a namespace's whole strategy map, answered
with per-strategy rankings, rank correlations and top-k overlap against
a reference strategy, and live per-strategy latency percentiles.  A
strategy shed by its router's backpressure is *marked* shed in the
response (with its ``retry_after_s`` hint) instead of failing the whole
comparison — partial answers are the point of a fleet-wide probe.

The third additive growth (this PR) is observability-facing: an
optional ``request_id`` on every request, echoed on the response *only
when the request carried one* (the ``strategy`` rule again — omitted
requests stay byte-stable), correlating a wire exchange with the
server's trace of it; and an optional ``strategies`` block on
:class:`StatsResponse` carrying measured per-strategy fit cost
(``fit_ms_p50``/``fit_ms_p95``).

The additive-only rule is machine-enforced: the ``wire-schema`` rule of
``repro analyze`` extracts this module's dataclass fields and compares
them against the committed snapshot at
``benchmarks/baselines/protocol_schema.json`` — removing a field,
retyping it, or adding a new *required* field fails the analysis suite
(and CI).  Adding an optional field is allowed; regenerate the snapshot
with ``repro analyze --update-schema`` in the same commit.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, TypeVar, cast

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_NAMESPACE",
    "DEFAULT_COMPARE_TOP_K",
    "ERROR_CODES",
    "ProtocolError",
    "RankRequest",
    "RankResponse",
    "ScoreBatchRequest",
    "ScoreBatchResponse",
    "CompareRequest",
    "CompareResponse",
    "StrategyComparison",
    "StatsResponse",
    "ErrorResponse",
    "MESSAGE_TYPES",
    "message_from_json",
]

PROTOCOL_VERSION = "v1"

#: namespace used by single-tenant entry points (one service, no gateway)
DEFAULT_NAMESPACE = "default"

#: overlap depth a compare uses when the request leaves ``top_k`` null —
#: the paper's top-k transfer-accuracy tables report small k, and 3 keeps
#: the metric meaningful even on tiny evaluation zoos
DEFAULT_COMPARE_TOP_K = 3

#: machine-readable error discriminants a client may rely on
ERROR_CODES = frozenset(
    {
        "bad_request",  # malformed JSON / failed validation
        "unknown_namespace",  # no such namespace behind the gateway
        "unknown_target",  # namespace exists, target dataset does not
        "unknown_model",  # a score_batch pair names no zoo model
        "unknown_strategy",  # namespace serves no strategy under that spec
        "queue_full",  # cold-fit queue saturated; carries retry_after_s
        "fit_unavailable",  # fit fleet could not fit; carries retry_after_s
        "not_found",  # no such route
        "method_not_allowed",  # route exists, wrong HTTP method
        "payload_too_large",  # request body over the server's byte cap
        "internal",  # unexpected server error (no details leaked)
    }
)


class ProtocolError(ValueError):
    """A message failed wire-protocol validation.

    The message text is client-safe by construction: it names fields and
    expectations only, never server internals.
    """


# ---------------------------------------------------------------------- #
# validation primitives
# ---------------------------------------------------------------------- #
def _type_name(value: object) -> str:
    return type(value).__name__


def _check_str(kind: str, name: str, value: object) -> str:
    if not isinstance(value, str) or not value:
        raise ProtocolError(
            f"{kind}.{name} must be a non-empty string, got {_type_name(value)}"
        )
    return value


def _check_float(kind: str, name: str, value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{kind}.{name} must be a number, got {_type_name(value)}")
    out = float(value)
    if not math.isfinite(out):
        # json.dumps would emit bare NaN/Infinity — not RFC JSON, and
        # strict clients would choke on an otherwise-200 body.
        raise ProtocolError(f"{kind}.{name} must be a finite number")
    return out


def _check_optional_str(kind: str, name: str, value: object) -> str | None:
    if value is None:
        return None
    return _check_str(kind, name, value)


def _check_optional_top_k(kind: str, value: object) -> int | None:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ProtocolError(f"{kind}.top_k must be null or a positive integer")
    return value


def _check_payload(
    kind: str, payload: object, allowed: set[str], required: set[str]
) -> dict[str, Any]:
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"{kind} payload must be a JSON object, got {_type_name(payload)}"
        )
    declared = payload.get("kind")
    if declared is not None and declared != kind:
        raise ProtocolError(
            f"payload kind {declared!r} does not match expected {kind!r}"
        )
    unknown = set(payload) - allowed - {"kind"}
    if unknown:
        raise ProtocolError(f"{kind} has unknown field(s): {sorted(unknown)}")
    missing = required - set(payload)
    if missing:
        raise ProtocolError(f"{kind} is missing required field(s): {sorted(missing)}")
    return payload


def _check_pairs(kind: str, name: str, value: object) -> tuple[tuple[str, str], ...]:
    if not isinstance(value, (list, tuple)):
        raise ProtocolError(f"{kind}.{name} must be a list of [model_id, target] pairs")
    out: list[tuple[str, str]] = []
    for i, pair in enumerate(value):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ProtocolError(f"{kind}.{name}[{i}] must be a [model_id, target] pair")
        out.append(
            (
                _check_str(kind, f"{name}[{i}][0]", pair[0]),
                _check_str(kind, f"{name}[{i}][1]", pair[1]),
            )
        )
    return tuple(out)


def _check_summary(kind: str, name: str, value: object) -> dict[str, float]:
    if not isinstance(value, dict):
        raise ProtocolError(f"{kind}.{name} must be an object of metric name -> number")
    return {
        _check_str(kind, f"{name} key", k): _check_float(kind, f"{name}[{k}]", v)
        for k, v in value.items()
    }


def _json_loads(kind: str, text: str | bytes) -> Any:
    try:
        return json.loads(text)
    except (ValueError, TypeError, UnicodeDecodeError, RecursionError):
        # RecursionError: the decoder recurses once per nesting level
        raise ProtocolError(f"{kind} body is not valid JSON") from None


# ---------------------------------------------------------------------- #
# message base
# ---------------------------------------------------------------------- #
_M = TypeVar("_M", bound="_Message")


class _Message:
    """Shared wire behaviour; subclasses define ``kind`` + ``from_dict``."""

    kind: ClassVar[str]

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind}
        for f in fields(self):  # type: ignore[arg-type]
            out[f.name] = getattr(self, f.name)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: object) -> "_Message":
        raise NotImplementedError

    @classmethod
    def from_json(cls: type[_M], text: str | bytes) -> _M:
        return cast(_M, cls.from_dict(_json_loads(cls.kind, text)))


# ---------------------------------------------------------------------- #
# requests
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RankRequest(_Message):
    """Rank every model of a namespace's zoo for one target dataset.

    ``strategy`` (optional, additive) selects a ranker from the
    namespace's strategy map; omitted requests serve the namespace
    default and serialise byte-identically to the pre-strategy protocol.
    """

    kind: ClassVar[str] = "rank"

    target: str
    namespace: str = DEFAULT_NAMESPACE
    top_k: int | None = None
    strategy: str | None = None
    request_id: str | None = None

    def __post_init__(self) -> None:
        _check_str(self.kind, "target", self.target)
        _check_str(self.kind, "namespace", self.namespace)
        _check_optional_top_k(self.kind, self.top_k)
        _check_optional_str(self.kind, "strategy", self.strategy)
        _check_optional_str(self.kind, "request_id", self.request_id)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "target": self.target,
            "namespace": self.namespace,
            "top_k": self.top_k,
        }
        if self.strategy is not None:  # omitted stays byte-stable
            out["strategy"] = self.strategy
        if self.request_id is not None:  # omitted stays byte-stable
            out["request_id"] = self.request_id
        return out

    @classmethod
    def from_dict(cls, payload: object) -> "RankRequest":
        data = _check_payload(
            cls.kind,
            payload,
            {"target", "namespace", "top_k", "strategy", "request_id"},
            {"target"},
        )
        return cls(
            target=data["target"],
            namespace=data.get("namespace", DEFAULT_NAMESPACE),
            top_k=data.get("top_k"),
            strategy=data.get("strategy"),
            request_id=data.get("request_id"),
        )


@dataclass(frozen=True)
class ScoreBatchRequest(_Message):
    """Score explicit (model_id, target) pairs; aligned to input order."""

    kind: ClassVar[str] = "score_batch"

    pairs: tuple[tuple[str, str], ...]
    namespace: str = DEFAULT_NAMESPACE
    strategy: str | None = None
    request_id: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", _check_pairs(self.kind, "pairs", self.pairs))
        _check_str(self.kind, "namespace", self.namespace)
        _check_optional_str(self.kind, "strategy", self.strategy)
        _check_optional_str(self.kind, "request_id", self.request_id)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "namespace": self.namespace,
            "pairs": [list(p) for p in self.pairs],
        }
        if self.strategy is not None:  # omitted stays byte-stable
            out["strategy"] = self.strategy
        if self.request_id is not None:  # omitted stays byte-stable
            out["request_id"] = self.request_id
        return out

    @classmethod
    def from_dict(cls, payload: object) -> "ScoreBatchRequest":
        data = _check_payload(
            cls.kind,
            payload,
            {"pairs", "namespace", "strategy", "request_id"},
            {"pairs"},
        )
        return cls(
            pairs=data["pairs"],  # __post_init__ validates
            namespace=data.get("namespace", DEFAULT_NAMESPACE),
            strategy=data.get("strategy"),
            request_id=data.get("request_id"),
        )


@dataclass(frozen=True)
class CompareRequest(_Message):
    """Fan one target across a namespace's strategy map and compare.

    ``strategies`` (optional) restricts the fan-out to those specs; a
    null field means *the namespace's whole strategy map* — every
    registered ranker answers.  An explicitly empty list is a protocol
    error: a comparison over nothing is a client bug, not an empty
    answer.  ``reference`` names the strategy correlations and top-k
    overlap are computed against (null = the namespace default); it
    joins the fan-out set implicitly when a subset omits it.  ``top_k``
    is the overlap depth (null = server default,
    :data:`DEFAULT_COMPARE_TOP_K`, clamped to the zoo's model count).
    """

    kind: ClassVar[str] = "compare"

    target: str
    namespace: str = DEFAULT_NAMESPACE
    strategies: tuple[str, ...] | None = None
    reference: str | None = None
    top_k: int | None = None
    request_id: str | None = None

    def __post_init__(self) -> None:
        _check_str(self.kind, "target", self.target)
        _check_str(self.kind, "namespace", self.namespace)
        _check_optional_str(self.kind, "reference", self.reference)
        _check_optional_str(self.kind, "request_id", self.request_id)
        _check_optional_top_k(self.kind, self.top_k)
        if self.strategies is not None:
            if not isinstance(self.strategies, (list, tuple)) or not self.strategies:
                raise ProtocolError(
                    f"{self.kind}.strategies must be null or a non-empty "
                    f"list of strategy specs"
                )
            specs = tuple(
                _check_str(self.kind, f"strategies[{i}]", spec)
                for i, spec in enumerate(self.strategies)
            )
            object.__setattr__(self, "strategies", specs)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "target": self.target,
            "namespace": self.namespace,
            "top_k": self.top_k,
        }
        if self.strategies is not None:  # null = whole strategy map
            out["strategies"] = list(self.strategies)
        if self.reference is not None:  # null = namespace default
            out["reference"] = self.reference
        if self.request_id is not None:  # omitted stays byte-stable
            out["request_id"] = self.request_id
        return out

    @classmethod
    def from_dict(cls, payload: object) -> "CompareRequest":
        data = _check_payload(
            cls.kind,
            payload,
            {"target", "namespace", "strategies", "reference", "top_k", "request_id"},
            {"target"},
        )
        return cls(
            target=data["target"],
            namespace=data.get("namespace", DEFAULT_NAMESPACE),
            strategies=data.get("strategies"),
            reference=data.get("reference"),
            top_k=data.get("top_k"),
            request_id=data.get("request_id"),
        )


# ---------------------------------------------------------------------- #
# responses
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RankResponse(_Message):
    """Models ranked best-first with their predicted scores."""

    kind: ClassVar[str] = "rank_response"

    namespace: str
    target: str
    ranking: tuple[tuple[str, float], ...]
    strategy: str | None = None
    request_id: str | None = None

    def __post_init__(self) -> None:
        _check_str(self.kind, "namespace", self.namespace)
        _check_str(self.kind, "target", self.target)
        _check_optional_str(self.kind, "strategy", self.strategy)
        _check_optional_str(self.kind, "request_id", self.request_id)
        if not isinstance(self.ranking, (list, tuple)):
            raise ProtocolError(
                f"{self.kind}.ranking must be a list of [model_id, score] pairs"
            )
        ranking: list[tuple[str, float]] = []
        for i, entry in enumerate(self.ranking):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ProtocolError(
                    f"{self.kind}.ranking[{i}] must be a [model_id, score] pair"
                )
            ranking.append(
                (
                    _check_str(self.kind, f"ranking[{i}][0]", entry[0]),
                    _check_float(self.kind, f"ranking[{i}][1]", entry[1]),
                )
            )
        object.__setattr__(self, "ranking", tuple(ranking))

    @classmethod
    def build(
        cls, request: RankRequest, ranking: list[tuple[str, float]]
    ) -> "RankResponse":
        """THE constructor every serving path funnels through."""
        return cls(
            namespace=request.namespace,
            target=request.target,
            ranking=tuple((m, float(s)) for m, s in ranking),
            strategy=request.strategy,
            request_id=request.request_id,
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "namespace": self.namespace,
            "target": self.target,
            "ranking": [[m, s] for m, s in self.ranking],
        }
        if self.strategy is not None:  # echoed only when requested
            out["strategy"] = self.strategy
        if self.request_id is not None:  # echoed only when requested
            out["request_id"] = self.request_id
        return out

    @classmethod
    def from_dict(cls, payload: object) -> "RankResponse":
        data = _check_payload(
            cls.kind,
            payload,
            {"namespace", "target", "ranking", "strategy", "request_id"},
            {"namespace", "target", "ranking"},
        )
        return cls(
            namespace=data["namespace"],
            target=data["target"],
            ranking=data["ranking"],
            strategy=data.get("strategy"),
            request_id=data.get("request_id"),
        )


@dataclass(frozen=True)
class ScoreBatchResponse(_Message):
    """Predicted scores aligned one-to-one with the request's pairs."""

    kind: ClassVar[str] = "score_batch_response"

    namespace: str
    pairs: tuple[tuple[str, str], ...]
    scores: tuple[float, ...]
    strategy: str | None = None
    request_id: str | None = None

    def __post_init__(self) -> None:
        _check_str(self.kind, "namespace", self.namespace)
        _check_optional_str(self.kind, "strategy", self.strategy)
        _check_optional_str(self.kind, "request_id", self.request_id)
        object.__setattr__(self, "pairs", _check_pairs(self.kind, "pairs", self.pairs))
        if not isinstance(self.scores, (list, tuple)):
            raise ProtocolError(f"{self.kind}.scores must be a list of numbers")
        scores = tuple(
            _check_float(self.kind, f"scores[{i}]", s)
            for i, s in enumerate(self.scores)
        )
        object.__setattr__(self, "scores", scores)
        if len(self.scores) != len(self.pairs):
            raise ProtocolError(
                f"{self.kind}.scores length {len(self.scores)} does not "
                f"match pairs length {len(self.pairs)}"
            )

    @classmethod
    def build(
        cls, request: ScoreBatchRequest, scores: Iterable[float]
    ) -> "ScoreBatchResponse":
        """THE constructor every serving path funnels through."""
        return cls(
            namespace=request.namespace,
            pairs=request.pairs,
            scores=tuple(float(s) for s in scores),
            strategy=request.strategy,
            request_id=request.request_id,
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "namespace": self.namespace,
            "pairs": [list(p) for p in self.pairs],
            "scores": list(self.scores),
        }
        if self.strategy is not None:  # echoed only when requested
            out["strategy"] = self.strategy
        if self.request_id is not None:  # echoed only when requested
            out["request_id"] = self.request_id
        return out

    @classmethod
    def from_dict(cls, payload: object) -> "ScoreBatchResponse":
        data = _check_payload(
            cls.kind,
            payload,
            {"namespace", "pairs", "scores", "strategy", "request_id"},
            {"namespace", "pairs", "scores"},
        )
        return cls(
            namespace=data["namespace"],
            pairs=data["pairs"],
            scores=data["scores"],
            strategy=data.get("strategy"),
            request_id=data.get("request_id"),
        )


#: allowed ``StrategyComparison.status`` values
_COMPARISON_STATUSES = ("ok", "shed")


@dataclass(frozen=True)
class StrategyComparison:
    """One strategy's slice of a :class:`CompareResponse`.

    Not a wire message itself (no ``kind``): it nests inside
    ``CompareResponse.results`` keyed by the strategy's canonical spec.

    - ``status == "ok"`` carries the full best-first ``ranking`` plus —
      when the reference strategy answered — ``pearson`` / ``spearman``
      rank correlations against the reference's scores and the
      ``top_k_overlap`` fraction of the reference's top-k set it shares;
    - ``status == "shed"`` means this strategy could not answer now but
      a retry can: its cold-fit queue was full, or its fleet fit failed
      retryably (no worker, a timeout, a lost worker).  No ranking, a
      ``retry_after_s`` hint instead (the rest of the comparison still
      answers — partial failure never fails the whole compare);
    - ``latency`` is the strategy's serving summary (percentiles since
      its router started, read from latency-histogram bucket counts),
      present either way.
    """

    status: str
    ranking: tuple[tuple[str, float], ...] = ()
    pearson: float | None = None
    spearman: float | None = None
    top_k_overlap: float | None = None
    latency: dict[str, float] = field(default_factory=dict)
    retry_after_s: float | None = None

    _kind: ClassVar[str] = "compare_response.results"

    def __post_init__(self) -> None:
        kind = self._kind
        if self.status not in _COMPARISON_STATUSES:
            raise ProtocolError(
                f"{kind}.status must be one of {list(_COMPARISON_STATUSES)}"
            )
        if not isinstance(self.ranking, (list, tuple)):
            raise ProtocolError(
                f"{kind}.ranking must be a list of [model_id, score] pairs"
            )
        ranking: list[tuple[str, float]] = []
        for i, entry in enumerate(self.ranking):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ProtocolError(
                    f"{kind}.ranking[{i}] must be a [model_id, score] pair"
                )
            ranking.append(
                (
                    _check_str(kind, f"ranking[{i}][0]", entry[0]),
                    _check_float(kind, f"ranking[{i}][1]", entry[1]),
                )
            )
        object.__setattr__(self, "ranking", tuple(ranking))
        object.__setattr__(
            self, "latency", _check_summary(kind, "latency", self.latency)
        )
        for name in ("pearson", "spearman"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _check_float(kind, name, value))
        if self.top_k_overlap is not None:
            overlap = _check_float(kind, "top_k_overlap", self.top_k_overlap)
            if not (0.0 <= overlap <= 1.0):
                raise ProtocolError(f"{kind}.top_k_overlap must be in [0, 1]")
            object.__setattr__(self, "top_k_overlap", overlap)
        if self.status == "ok":
            if not self.ranking:
                raise ProtocolError(
                    f"{kind}.ranking is required for an 'ok' comparison"
                )
            if self.retry_after_s is not None:
                raise ProtocolError(
                    f"{kind}.retry_after_s is only valid for a 'shed' comparison"
                )
        else:  # shed
            if self.ranking:
                raise ProtocolError(
                    f"{kind}.ranking must be empty for a 'shed' comparison"
                )
            if (
                self.pearson is not None
                or self.spearman is not None
                or self.top_k_overlap is not None
            ):
                raise ProtocolError(
                    f"{kind} correlations must be null for a 'shed' comparison"
                )
            if self.retry_after_s is None:
                raise ProtocolError(
                    f"{kind}.retry_after_s is required for a 'shed' comparison"
                )
            retry = _check_float(kind, "retry_after_s", self.retry_after_s)
            if retry < 0:
                raise ProtocolError(f"{kind}.retry_after_s must be >= 0")
            object.__setattr__(self, "retry_after_s", retry)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"status": self.status, "latency": dict(self.latency)}
        if self.status == "ok":
            out["ranking"] = [[m, s] for m, s in self.ranking]
            # correlations are omitted (not null) when the reference shed
            for name in ("pearson", "spearman", "top_k_overlap"):
                value = getattr(self, name)
                if value is not None:
                    out[name] = value
        else:
            out["retry_after_s"] = self.retry_after_s
        return out

    @classmethod
    def from_dict(cls, payload: object) -> "StrategyComparison":
        data = _check_payload(
            cls._kind,
            payload,
            {
                "status",
                "ranking",
                "pearson",
                "spearman",
                "top_k_overlap",
                "latency",
                "retry_after_s",
            },
            {"status"},
        )
        return cls(
            status=data["status"],
            ranking=data.get("ranking", ()),
            pearson=data.get("pearson"),
            spearman=data.get("spearman"),
            top_k_overlap=data.get("top_k_overlap"),
            latency=data.get("latency", {}),
            retry_after_s=data.get("retry_after_s"),
        )


@dataclass(frozen=True)
class CompareResponse(_Message):
    """Every strategy's answer for one target, side by side.

    ``results`` maps each fanned-out strategy's canonical spec to its
    :class:`StrategyComparison`; ``reference`` names the spec the
    correlations were computed against (always itself a key of
    ``results``) and ``top_k`` is the resolved overlap depth.
    """

    kind: ClassVar[str] = "compare_response"

    namespace: str
    target: str
    reference: str
    top_k: int
    results: dict[str, StrategyComparison] = field(default_factory=dict)
    request_id: str | None = None

    def __post_init__(self) -> None:
        _check_str(self.kind, "namespace", self.namespace)
        _check_str(self.kind, "target", self.target)
        _check_str(self.kind, "reference", self.reference)
        _check_optional_str(self.kind, "request_id", self.request_id)
        if (
            isinstance(self.top_k, bool)
            or not isinstance(self.top_k, int)
            or self.top_k < 1
        ):
            raise ProtocolError(f"{self.kind}.top_k must be a positive integer")
        if not isinstance(self.results, dict) or not self.results:
            raise ProtocolError(
                f"{self.kind}.results must be a non-empty object of "
                f"strategy spec -> comparison"
            )
        results: dict[str, StrategyComparison] = {}
        for spec, comparison in self.results.items():
            _check_str(self.kind, "results key", spec)
            if isinstance(comparison, dict):
                comparison = StrategyComparison.from_dict(comparison)
            elif not isinstance(comparison, StrategyComparison):
                raise ProtocolError(
                    f"{self.kind}.results[{spec}] must be a comparison "
                    f"object, got {_type_name(comparison)}"
                )
            results[spec] = comparison
        object.__setattr__(self, "results", results)
        if self.reference not in self.results:
            raise ProtocolError(
                f"{self.kind}.reference must name one of the compared "
                f"strategies"
            )

    @classmethod
    def build(
        cls,
        request: CompareRequest,
        reference: str,
        top_k: int,
        results: dict[str, StrategyComparison],
    ) -> "CompareResponse":
        """THE constructor every serving path funnels through."""
        return cls(
            namespace=request.namespace,
            target=request.target,
            reference=reference,
            top_k=top_k,
            results=results,
            request_id=request.request_id,
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "namespace": self.namespace,
            "target": self.target,
            "reference": self.reference,
            "top_k": self.top_k,
            "results": {
                spec: comparison.to_dict() for spec, comparison in self.results.items()
            },
        }
        if self.request_id is not None:  # echoed only when requested
            out["request_id"] = self.request_id
        return out

    @classmethod
    def from_dict(cls, payload: object) -> "CompareResponse":
        data = _check_payload(
            cls.kind,
            payload,
            {"namespace", "target", "reference", "top_k", "results", "request_id"},
            {"namespace", "target", "reference", "top_k", "results"},
        )
        return cls(
            namespace=data["namespace"],
            target=data["target"],
            reference=data["reference"],
            top_k=data["top_k"],
            results=data["results"],
            request_id=data.get("request_id"),
        )


@dataclass(frozen=True)
class StatsResponse(_Message):
    """Per-namespace serving summaries plus fleet-wide aggregates.

    ``strategies`` (optional, additive) breaks each namespace down by
    strategy spec with *measured* serving cost — ``fit_ms_p50`` /
    ``fit_ms_p95`` from the router's fit-latency histogram.  Empty
    means the server predates the field (or has no routers); it is
    omitted from the wire form so pre-observability stats bodies stay
    byte-stable.
    """

    kind: ClassVar[str] = "stats_response"

    namespaces: dict[str, dict[str, float]] = field(default_factory=dict)
    fleet: dict[str, float] = field(default_factory=dict)
    strategies: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.namespaces, dict):
            raise ProtocolError(f"{self.kind}.namespaces must be an object")
        namespaces = {
            _check_str(self.kind, "namespaces key", name): _check_summary(
                self.kind, f"namespaces[{name}]", summary
            )
            for name, summary in self.namespaces.items()
        }
        object.__setattr__(self, "namespaces", namespaces)
        object.__setattr__(
            self, "fleet", _check_summary(self.kind, "fleet", self.fleet)
        )
        if not isinstance(self.strategies, dict):
            raise ProtocolError(f"{self.kind}.strategies must be an object")
        strategies: dict[str, dict[str, dict[str, float]]] = {}
        for name, per_spec in self.strategies.items():
            _check_str(self.kind, "strategies key", name)
            if not isinstance(per_spec, dict):
                raise ProtocolError(
                    f"{self.kind}.strategies[{name}] must be an object of "
                    f"strategy spec -> summary"
                )
            strategies[name] = {
                _check_str(self.kind, f"strategies[{name}] key", spec): _check_summary(
                    self.kind, f"strategies[{name}][{spec}]", summary
                )
                for spec, summary in per_spec.items()
            }
        object.__setattr__(self, "strategies", strategies)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "namespaces": self.namespaces,
            "fleet": self.fleet,
        }
        if self.strategies:  # omitted stays byte-stable
            out["strategies"] = self.strategies
        return out

    @classmethod
    def from_dict(cls, payload: object) -> "StatsResponse":
        data = _check_payload(
            cls.kind,
            payload,
            {"namespaces", "fleet", "strategies"},
            {"namespaces", "fleet"},
        )
        return cls(
            namespaces=data["namespaces"],
            fleet=data["fleet"],
            strategies=data.get("strategies", {}),
        )


@dataclass(frozen=True)
class ErrorResponse(_Message):
    """A typed failure: machine-readable code, client-safe message.

    ``retry_after_s`` is populated for ``queue_full`` errors (HTTP 429)
    with the router's adaptive backpressure hint (p95 of every timed
    fit scaled by queue depth), and for ``fit_unavailable`` errors
    (HTTP 503: the fit fleet had no worker, or its fit timed out or
    lost its worker) with a fixed 1.0; clients should wait that long
    before retrying.
    """

    kind: ClassVar[str] = "error"

    code: str
    message: str
    retry_after_s: float | None = None

    def __post_init__(self) -> None:
        if self.code not in ERROR_CODES:
            raise ProtocolError(
                f"{self.kind}.code must be one of {sorted(ERROR_CODES)}"
            )
        _check_str(self.kind, "message", self.message)
        if self.retry_after_s is not None:
            value = _check_float(self.kind, "retry_after_s", self.retry_after_s)
            if value < 0:
                raise ProtocolError(f"{self.kind}.retry_after_s must be >= 0")
            object.__setattr__(self, "retry_after_s", value)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "code": self.code,
            "message": self.message,
        }
        if self.retry_after_s is not None:  # queue_full, fit_unavailable
            out["retry_after_s"] = self.retry_after_s
        return out

    @classmethod
    def from_dict(cls, payload: object) -> "ErrorResponse":
        data = _check_payload(
            cls.kind,
            payload,
            {"code", "message", "retry_after_s"},
            {"code", "message"},
        )
        return cls(
            code=data["code"],
            message=data["message"],
            retry_after_s=data.get("retry_after_s"),
        )


#: wire-kind -> message class, for kind-dispatched decoding
MESSAGE_TYPES: dict[str, type[_Message]] = {
    cls.kind: cls
    for cls in (
        RankRequest,
        ScoreBatchRequest,
        CompareRequest,
        RankResponse,
        ScoreBatchResponse,
        CompareResponse,
        StatsResponse,
        ErrorResponse,
    )
}


def message_from_json(text: str | bytes) -> _Message:
    """Decode any protocol message, dispatching on its ``kind`` field."""
    payload = _json_loads("message", text)
    if not isinstance(payload, dict):
        raise ProtocolError("message payload must be a JSON object")
    kind = payload.get("kind")
    # isinstance guard: an unhashable kind (list/object) must be a
    # validation error, not a TypeError out of dict.get
    cls = MESSAGE_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        shown = repr(kind) if isinstance(kind, str) else _type_name(kind)
        raise ProtocolError(
            f"unknown message kind {shown}; expected one of {sorted(MESSAGE_TYPES)}"
        )
    return cls.from_dict(payload)
