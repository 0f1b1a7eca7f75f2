"""Multi-tenant selection gateway: N named namespaces, one front door.

A *namespace* is an independently-served zoo under a *strategy map* —
one or more :class:`~repro.strategies.SelectionStrategy` instances, each
with its own warm cache and async router, all sharing the namespace's
registry shard.  The :class:`SelectionGateway` routes typed protocol
requests to the namespace they name and, within it, to the strategy
their optional ``strategy`` field selects:

- registry shards are keyed by ``(namespace, strategy fingerprint)`` —
  on disk, ``<root>/<namespace>/<strategy_fp>/<target>`` — so two
  namespaces never serve each other's artifacts even under identical
  strategies;
- an omitted ``strategy`` field serves the namespace's *default*
  strategy, keeping pre-strategy requests byte-identical; an unknown
  spec raises :class:`~repro.strategies.UnknownStrategyError` (the HTTP
  front door maps it to a typed 404 body), and unknown
  namespaces/targets/models keep their own typed errors;
- :meth:`SelectionGateway.stats` merges every namespace's raw counter
  snapshots — pooled across its strategies — into a fleet-wide summary
  (percentiles of the pooled latency histograms, not averages of
  per-namespace percentiles).

Every (namespace, strategy) pair has its own router, so cold fits are
admitted by one rule per pair: at most ``max_pending_fits`` pending,
a request beyond that answered with a shed (:class:`QueueFullError`,
429 over HTTP) carrying the measured retry hint, and warmup waiting for
a slot.  Strategies never share queue slots or fit threads, so a storm
of slow fits on one strategy leaves another's admissions unchanged.

Without a fleet, routers share their fit pools: every namespace's
router for one strategy spec (with one ``fit_workers``) runs its cold
fits on a single gateway-owned thread pool, so a gateway fitting many
namespaces keeps ``fit_workers`` fit threads per strategy instead of
starting new ones — each with its own glibc malloc arena holding that
fit's freed temporaries — for every namespace.  A gateway with a fleet
sends every router's cold fits to it, and each router keeps its own
pool: those threads only wait on remote fits, and sharing would cap the
fleet's concurrency.

Serving several strategies over one namespace turns the paper's
Table-style comparison into a live workload: the same ``/v1/rank``
request with different ``strategy`` values answers a TG variant, an LR
baseline, and a transferability-only ranker head-to-head.

The gateway is the in-process seam the HTTP front door
(:mod:`repro.serving.http`) sits on: both speak only protocol types.
"""

from __future__ import annotations

import asyncio
import re
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.fleet.errors import FIT_RETRY_AFTER_S, RETRYABLE_FIT_ERRORS
from repro.obs import Observability, set_outcome
from repro.serving.compare import build_comparisons
from repro.serving.protocol import (
    DEFAULT_COMPARE_TOP_K,
    CompareRequest,
    CompareResponse,
    RankRequest,
    RankResponse,
    ScoreBatchRequest,
    ScoreBatchResponse,
    StatsResponse,
)
from repro.serving.registry import ArtifactRegistry
from repro.serving.router import AsyncSelectionRouter, QueueFullError, RouterStats
from repro.serving.service import SelectionService, ServiceStats
from repro.strategies import (
    UnknownStrategyError,
    canonical_spec,
    normalize_spec,
    resolve_strategy,
)

__all__ = [
    "SelectionGateway",
    "UnknownNamespaceError",
    "UnknownTargetError",
    "UnknownModelError",
    "UnknownStrategyError",
]

#: namespace names become registry path segments, so they must be plain
#: slugs — in particular '.'/'..' must not resolve outside the shard root
_NAMESPACE_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")


class UnknownNamespaceError(KeyError):
    """The request names a namespace this gateway does not serve."""

    def __init__(self, namespace: str, known: list[str]):
        super().__init__(f"unknown namespace {namespace!r}; serving {sorted(known)}")
        self.namespace = namespace

    def __str__(self) -> str:  # KeyError str() wraps args in quotes
        return self.args[0]


class UnknownTargetError(KeyError):
    """The namespace exists but its zoo has no such target dataset."""

    def __init__(self, target: str, namespace: str):
        super().__init__(f"unknown target {target!r} in namespace {namespace!r}")
        self.target = target
        self.namespace = namespace

    def __str__(self) -> str:
        return self.args[0]


class UnknownModelError(ValueError):
    """A score_batch pair names a model the namespace's zoo lacks."""

    def __init__(self, model_id: str, namespace: str):
        super().__init__(f"unknown model {model_id!r} in namespace {namespace!r}")
        self.model_id = model_id
        self.namespace = namespace


class _Entry:
    """One strategy of a namespace: its service + router pair."""

    __slots__ = ("service", "router")

    def __init__(self, service: SelectionService, router: AsyncSelectionRouter):
        self.service = service
        self.router = router


class _Namespace:
    """One tenant: a zoo behind a spec-keyed strategy map."""

    def __init__(self, name: str, zoo):
        self.name = name
        self.zoo = zoo
        #: canonical spec -> _Entry; insertion order is registration order
        self.entries: dict[str, _Entry] = {}
        self.default_spec: str | None = None
        # Frozen at registration so per-request validation costs two set
        # probes, not two sorted list rebuilds (zoos are immutable
        # between explicit invalidations).
        self.targets = frozenset(zoo.target_names())
        self.models = frozenset(zoo.model_ids())

    def resolve_spec(self, spec: str | None) -> str:
        """The strategy-map key a request's ``strategy`` field selects.

        Alias spellings route like their canonical form (``random:0`` →
        ``random``), exactly as :func:`repro.strategies.get_strategy`
        would accept them; custom strategies with non-lowercase specs
        match exactly (they have no alias spellings to normalise).
        """
        if spec is None:
            return self.default_spec
        if spec in self.entries:
            return spec
        for candidate in (canonical_spec(spec), normalize_spec(spec)):
            if candidate in self.entries:
                return candidate
        raise UnknownStrategyError(spec, list(self.entries))

    def entry_for(self, spec: str | None) -> _Entry:
        """The (service, router) pair a request's ``strategy`` selects."""
        return self.entries[self.resolve_spec(spec)]

    def specs(self) -> list[str]:
        """Served strategy specs, default first."""
        others = sorted(s for s in self.entries if s != self.default_spec)
        return [self.default_spec, *others]


class SelectionGateway:
    """Route protocol requests across named (zoo, strategy map) namespaces.

    Parameters
    ----------
    registry_root:
        When given, every namespace added without an explicit registry
        gets the shard ``registry_root / <namespace name>`` (the
        namespace's own fingerprint-keyed registry tree lives below
        that).  ``None`` means namespaces run memory-only unless they
        bring their own registry.
    obs:
        The :class:`~repro.obs.Observability` plane every request is
        traced into (and whose metrics ``GET /v1/metrics`` renders).
        Defaults to a fresh plane with no event log; pass a
        :class:`~repro.obs.NullObservability` to disable collection
        entirely (the overhead benchmark's control arm).
    fleet:
        A started :class:`~repro.fleet.FleetCoordinator` every router
        the gateway builds sends its cold fits to; ``None`` (default)
        fits on the gateway's shared thread pools.  The gateway owns its
        shutdown: :meth:`close` closes it (dropping all registered
        ``repro fit-worker`` daemons), and ``/v1/healthz`` lists its
        live fleet.
    """

    def __init__(
        self,
        registry_root: str | Path | None = None,
        *,
        obs: Observability | None = None,
        fleet=None,
    ):
        self._registry_root = Path(registry_root) if registry_root is not None else None
        self.obs = obs if obs is not None else Observability()
        self.fleet = fleet
        self._namespaces: dict[str, _Namespace] = {}
        #: (strategy spec, fit_workers) -> the fit pool every router of
        #: that strategy shares when there is no fleet (module doc)
        self._fit_pools: dict[tuple[str, int], ThreadPoolExecutor] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # namespace management
    # ------------------------------------------------------------------ #
    def add_namespace(self, name: str, zoo,
                      strategy=None, *,
                      strategies: tuple = (),
                      registry: ArtifactRegistry | None = None,
                      cache_size: int = 32,
                      max_pending_fits: int = 8,
                      fit_workers: int = 2,
                      fit_timeout_s: float | None = None
                      ) -> SelectionService:
        """Register one namespace; returns its *default* service.

        ``strategy`` is the namespace's default (anything
        :func:`repro.strategies.resolve_strategy` accepts — strategy
        instance, spec string, TG config, or ``None`` for TG defaults);
        ``strategies`` adds further rankers to the namespace's map, each
        served under its canonical spec.  Every strategy shares the
        namespace's registry shard — artifacts stay disjoint because
        the shard is keyed by strategy fingerprint below that.

        Each strategy gets its own router, which admits at most
        ``max_pending_fits`` pending cold fits (module doc).  Cold fits
        run on the gateway's ``fleet`` when it has one, else on the
        gateway's in-process pool for that strategy, shared with every
        other namespace's router of the same spec and ``fit_workers``.
        ``fit_timeout_s`` bounds a fleet fit before its coalesced group
        is shed with a typed error.
        """
        if not _NAMESPACE_NAME.fullmatch(name):
            raise ValueError(
                f"namespace name {name!r} must match "
                f"{_NAMESPACE_NAME.pattern!r} (it becomes a registry "
                "path segment)"
            )
        if name in self._namespaces:
            raise ValueError(f"namespace {name!r} already registered")
        if registry is None and self._registry_root is not None:
            registry = ArtifactRegistry(self._registry_root / name)

        ns = _Namespace(name, zoo)
        resolved = [resolve_strategy(strategy)]
        resolved += [resolve_strategy(s) for s in strategies]
        for strat in resolved:
            if strat.spec in ns.entries:
                raise ValueError(
                    f"strategy {strat.spec!r} registered twice in "
                    f"namespace {name!r}"
                )
            service = SelectionService(
                zoo, strat, registry=registry, cache_size=cache_size
            )
            fit_pool = None  # with a fleet, fit threads only wait on it
            if self.fleet is None:
                fit_pool = self._fit_pool(strat.spec, fit_workers)
            router = AsyncSelectionRouter(
                service,
                max_pending_fits=max_pending_fits,
                fit_workers=fit_workers,
                fit_timeout_s=fit_timeout_s,
                fleet=self.fleet,
                fit_pool=fit_pool,
            )
            ns.entries[strat.spec] = _Entry(service, router)
            self.obs.watch_queue_depth(
                name, strat.spec, lambda r=router: r.pending_fits
            )
        ns.default_spec = resolved[0].spec
        self._namespaces[name] = ns
        return ns.entries[ns.default_spec].service

    def _fit_pool(self, spec: str, fit_workers: int) -> ThreadPoolExecutor:
        """The fit pool the routers of ``spec`` share."""
        key = (spec, fit_workers)
        pool = self._fit_pools.get(key)
        if pool is None:
            pool = self._fit_pools[key] = ThreadPoolExecutor(
                max_workers=fit_workers, thread_name_prefix="gateway-fit"
            )
        return pool

    def namespaces(self) -> list[str]:
        return sorted(self._namespaces)

    def strategies(self, namespace: str) -> list[str]:
        """Strategy specs a namespace serves, default first."""
        return self._get(namespace).specs()

    def service(self, namespace: str, strategy: str | None = None) -> SelectionService:
        return self._get(namespace).entry_for(strategy).service

    def router(
        self, namespace: str, strategy: str | None = None
    ) -> AsyncSelectionRouter:
        return self._get(namespace).entry_for(strategy).router

    def _get(self, namespace: str) -> _Namespace:
        ns = self._namespaces.get(namespace)
        if ns is None:
            raise UnknownNamespaceError(namespace, list(self._namespaces))
        return ns

    # ------------------------------------------------------------------ #
    # protocol entry points
    # ------------------------------------------------------------------ #
    def _check_names(self, ns: _Namespace, targets: set[str], models: set[str]) -> None:
        """Typed 404/400-able errors instead of service KeyErrors.

        Targets are checked against the zoo's *target* roster (the same
        contract ``repro rank`` enforces) — source datasets are rankable
        in principle but not served, so clients cannot burn fit-queue
        capacity on them.
        """
        unknown_targets = targets - ns.targets
        if unknown_targets:
            raise UnknownTargetError(sorted(unknown_targets)[0], ns.name)
        unknown_models = models - ns.models
        if unknown_models:
            raise UnknownModelError(sorted(unknown_models)[0], ns.name)

    async def rank(
        self, request: RankRequest, *, request_id: str | None = None
    ) -> RankResponse:
        ns = self._get(request.namespace)
        spec = ns.resolve_spec(request.strategy)
        self._check_names(ns, {request.target}, set())
        # request_id kwarg: transport-level id (X-Request-Id header);
        # the body field wins so the response echo matches the request
        with self.obs.request(
            "rank",
            namespace=ns.name,
            strategy=spec,
            request_id=request.request_id or request_id,
        ):
            return await ns.entries[spec].router.handle(request)

    async def score_batch(
        self, request: ScoreBatchRequest, *, request_id: str | None = None
    ) -> ScoreBatchResponse:
        ns = self._get(request.namespace)
        spec = ns.resolve_spec(request.strategy)
        self._check_names(
            ns, {t for _, t in request.pairs}, {m for m, _ in request.pairs}
        )
        with self.obs.request(
            "score_batch",
            namespace=ns.name,
            strategy=spec,
            request_id=request.request_id or request_id,
        ):
            return await ns.entries[spec].router.handle(request)

    async def compare(
        self, request: CompareRequest, *, request_id: str | None = None
    ) -> CompareResponse:
        """Fan one target across a namespace's strategy map, concurrently.

        Every fanned-out strategy answers through its *own* router, so
        the per-strategy single-flight coalescing, queue bounds, and
        shedding semantics hold exactly as they would for independent
        ``/v1/rank`` traffic.  A strategy shed by its router's
        backpressure, or whose fleet fit failed in a way a retry can
        outlive (:data:`~repro.fleet.errors.RETRYABLE_FIT_ERRORS`), is
        marked ``"shed"`` in the response (with its ``retry_after_s``
        hint) instead of failing the whole comparison; any other
        failure propagates — a broken strategy is a server bug, not a
        partial answer.
        """
        ns = self._get(request.namespace)
        self._check_names(ns, {request.target}, set())
        reference = ns.resolve_spec(request.reference)
        if request.strategies is None:
            specs = ns.specs()
        else:
            specs = []
            for spec in request.strategies:
                resolved = ns.resolve_spec(spec)
                if resolved not in specs:
                    specs.append(resolved)
            if reference not in specs:  # correlations need its ranking
                specs.insert(0, reference)
        top_k = min(request.top_k or DEFAULT_COMPARE_TOP_K, len(ns.models))

        async def fan_out(spec: str):
            """(ranking, None) or (None, retry hint) for one strategy."""
            try:
                return await ns.entries[spec].router.rank(request.target), None
            except QueueFullError as exc:
                return None, float(exc.retry_after_s)
            except RETRYABLE_FIT_ERRORS:
                set_outcome("shed")
                return None, FIT_RETRY_AFTER_S

        # one trace covers the whole fan-out: gather's subtasks copy the
        # context at creation, so every strategy's fit/predict spans
        # attach to this compare request (outcome = most severe fanned)
        with self.obs.request(
            "compare",
            namespace=ns.name,
            strategy="map",
            request_id=request.request_id or request_id,
        ):
            answers = await asyncio.gather(*(fan_out(spec) for spec in specs))
        rankings: dict[str, list] = {}
        sheds: dict[str, float] = {}
        for spec, (ranking, retry_after_s) in zip(specs, answers):
            if retry_after_s is None:
                rankings[spec] = ranking
            else:
                sheds[spec] = retry_after_s
        latencies = {}
        for spec in specs:
            service_snap, router_snap = ns.entries[spec].router.stats_snapshot()
            latencies[spec] = {
                **service_snap.latency_summary(),
                **router_snap.latency_summary(),
            }
        results = build_comparisons(
            rankings, sheds, reference=reference, top_k=top_k, latencies=latencies
        )
        return CompareResponse.build(request, reference, top_k, results)

    async def handle(self, request):
        """Dispatch one protocol request to its namespace's router(s)."""
        if isinstance(request, RankRequest):
            return await self.rank(request)
        if isinstance(request, ScoreBatchRequest):
            return await self.score_batch(request)
        if isinstance(request, CompareRequest):
            return await self.compare(request)
        raise TypeError(f"unsupported request type {type(request).__name__}")

    async def warmup(self, namespace: str | None = None) -> dict[str, dict[str, float]]:
        """Pre-fit targets — one namespace or all; seconds per target.

        Every strategy in a namespace's map is warmed; per-target
        seconds sum across strategies.
        """
        names = [namespace] if namespace is not None else self.namespaces()
        out: dict[str, dict[str, float]] = {}
        for name in names:
            ns = self._get(name)
            totals: dict[str, float] = {}
            for entry in ns.entries.values():
                for target, seconds in (await entry.router.warmup()).items():
                    totals[target] = totals.get(target, 0.0) + seconds
            out[name] = totals
        return out

    # ------------------------------------------------------------------ #
    # stats
    # ------------------------------------------------------------------ #
    def stats(self) -> StatsResponse:
        """Per-namespace summaries + fleet-wide aggregate.

        Each namespace row pools its strategies' *raw* snapshots, and
        the fleet row pools every namespace — counters and latency
        histogram counts add — so every percentile is read from the
        pooled bucket counts of every query since process start, not
        averaged from partial percentiles.  The additive ``strategies``
        block breaks each namespace down by spec with its *measured*
        fit cost (``fit_ms_p50``/``fit_ms_p95``).
        """
        per_namespace: dict[str, dict[str, float]] = {}
        fleet_service, fleet_router = ServiceStats(), RouterStats()
        for name, ns in sorted(self._namespaces.items()):
            ns_service, ns_router = ServiceStats(), RouterStats()
            for entry in ns.entries.values():
                service_snap, router_snap = entry.router.stats_snapshot()
                ns_service.merge(service_snap)
                ns_router.merge(router_snap)
            per_namespace[name] = {**ns_service.summary(), **ns_router.summary()}
            fleet_service.merge(ns_service)
            fleet_router.merge(ns_router)
        fleet = {
            **fleet_service.summary(),
            **fleet_router.summary(),
            "namespaces": float(len(self._namespaces)),
        }
        return StatsResponse(
            namespaces=per_namespace, fleet=fleet, strategies=self.fit_costs()
        )

    def fit_costs(self) -> dict[str, dict[str, dict[str, float]]]:
        """Measured per-strategy fit cost: namespace -> spec -> summary.

        Embedded in ``/v1/stats`` (the ``strategies`` block) and the
        healthz listing: the fit latency each strategy's router observed.
        """
        return {
            name: {
                spec: ns.entries[spec].router.fit_cost_summary()
                for spec in ns.specs()
            }
            for name, ns in sorted(self._namespaces.items())
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def fleet_summary(self) -> dict | None:
        """The fleet coordinator's live snapshot; None without a fleet."""
        return None if self.fleet is None else self.fleet.fleet_summary()

    def close(self) -> None:
        """Shut every namespace's routers, the shared fit pools and the
        fleet down; idempotent."""
        if not self._closed:
            self._closed = True
            for ns in self._namespaces.values():
                for entry in ns.entries.values():
                    entry.router.close()
            for pool in self._fit_pools.values():
                pool.shutdown(wait=True)
            if self.fleet is not None:
                self.fleet.close()

    async def __aenter__(self) -> "SelectionGateway":
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()
