"""Warm-start selection serving: cached fitted answers behind one facade.

:class:`SelectionService` serves exactly one
:class:`~repro.strategies.SelectionStrategy` — any ranker behind the
unified fit/rank/pack API: a TransferGraph variant, an LR baseline, a
transferability-only scorer, ... — and answers ranking and scoring
queries without fitting or predicting anything on the hot path:

- an in-memory LRU keyed by (target, strategy fingerprint) holds one
  :class:`Answer` per fitted target: the fitted pipeline
  (:class:`~repro.core.FittedTransferGraph`,
  :class:`~repro.strategies.FittedScoreTable`, ...) together with its
  whole served answer — the best-first ranking over ``zoo.model_ids()``
  and a model→score map.  The answer is computed once, by
  :meth:`SelectionService.cache_put`, when the pipeline enters the cache
  (fresh fit, registry revive or :meth:`SelectionService.refresh`), on
  the thread doing that work;
- on a cache miss the service tries the on-disk
  :class:`~repro.serving.ArtifactRegistry` (stale artifacts are refit,
  never served);
- on a registry miss it fits from scratch and writes the artifact
  through to the registry so the next process starts warm.

A warm ``rank`` slices the stored ranking and a warm ``score_batch``
indexes the stored scores: no feature assembly, no catalog read, no
predictor call.  A pipeline and its answer are swapped into the cache
together under the service lock, so a reader sees the old pair or the
new one, never a mix.  The consistency contract follows: a catalog
write reaches warm answers only through :meth:`SelectionService.refresh`
or :meth:`SelectionService.invalidate`.

Every query is timed and counted; :meth:`SelectionService.stats` exposes
hit rates and latency percentiles.  The cache/stat primitives
(:meth:`cache_get`, :meth:`cache_put`, :meth:`load_or_fit`,
:meth:`record_query`) are thread-safe, so the async router in
:mod:`repro.serving.router` answers cache hits inline on its event loop
while fits run on its thread pool: bookkeeping is serialised under one
lock, while fits, revives and answer materialisation run outside it
(the router's single-flight coalescing guarantees at most one in-flight
fit per cache key).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.obs import record_cache, set_outcome, span
from repro.obs.metrics import Histogram
from repro.strategies.artifacts import ArtifactError
from repro.serving.protocol import (
    RankRequest,
    RankResponse,
    ScoreBatchRequest,
    ScoreBatchResponse,
)
from repro.serving.registry import ArtifactRegistry
from repro.strategies import (
    UnknownStrategyError,
    canonical_spec,
    normalize_spec,
    resolve_strategy,
)

__all__ = ["Answer", "SelectionService", "ServiceStats"]

_COUNTER_FIELDS = (
    "queries",
    "cache_hits",
    "cache_misses",
    "registry_hits",
    "fits",
    "refreshes",
    "evictions",
    "invalidations",
)


@dataclass(frozen=True, eq=False)
class Answer:
    """One fitted target's whole served answer, fixed when it is cached.

    ``ranking`` is ``fitted.rank(model_ids)`` over the zoo's full model
    roster, best first, and ``scores`` maps each model to the same
    score, so ``rank`` and ``score_batch`` read one stored number and
    cannot disagree.  Every request shares the record: treat it as
    read-only.
    """

    fitted: object
    ranking: list[tuple[str, float]] = field(repr=False)
    scores: dict[str, float] = field(repr=False)


@dataclass
class ServiceStats:
    """Counters and the per-query latency histogram of a service."""

    queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    registry_hits: int = 0
    fits: int = 0
    refreshes: int = 0
    evictions: int = 0
    invalidations: int = 0
    latencies_ms: Histogram = field(default_factory=Histogram, repr=False)

    def hit_rate(self) -> float:
        """Fraction of fitted-pipeline lookups served from memory."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def copy(self) -> "ServiceStats":
        return ServiceStats(
            latencies_ms=self.latencies_ms.copy(),
            **{f: getattr(self, f) for f in _COUNTER_FIELDS},
        )

    def since(self, earlier: "ServiceStats") -> "ServiceStats":
        """Counters and latencies accumulated after the ``earlier`` snapshot."""
        return ServiceStats(
            latencies_ms=self.latencies_ms.since(earlier.latencies_ms),
            **{f: getattr(self, f) - getattr(earlier, f) for f in _COUNTER_FIELDS},
        )

    def merge(self, other: "ServiceStats") -> "ServiceStats":
        """Pool another snapshot in: counters and histogram counts add.

        Used for fleet-wide aggregation across gateway namespaces —
        percentiles of the merged histogram are pooled percentiles, not
        averages of per-namespace ones.
        """
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.latencies_ms.merge(other.latencies_ms)
        return self

    def latency_summary(self) -> dict[str, float]:
        """The per-query latency slice of :meth:`summary` alone.

        Compare responses embed this per strategy (the protocol's
        ``StrategyComparison.latency``), so it is a flat name->float map.
        """
        p50, p95 = self.latencies_ms.percentiles((50, 95))
        return {"p50_ms": p50, "p95_ms": p95, "max_ms": self.latencies_ms.max}

    def summary(self) -> dict[str, float]:
        return {
            "queries": self.queries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "registry_hits": self.registry_hits,
            "fits": self.fits,
            "refreshes": self.refreshes,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate(),
            **self.latency_summary(),
        }


class SelectionService:
    """Serve ``rank`` / ``score_batch`` queries from warm fitted artifacts.

    ``strategy`` is anything :func:`repro.strategies.resolve_strategy`
    accepts: a :class:`~repro.strategies.SelectionStrategy`, a spec
    string (``"logme"``, ``"tg:lr,n2v,all"``), a bare
    :class:`~repro.core.TransferGraphConfig` (the pre-redesign
    signature), or ``None`` for TG defaults.
    """

    def __init__(
        self,
        zoo,
        strategy=None,
        registry: ArtifactRegistry | None = None,
        cache_size: int = 32,
    ):
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.zoo = zoo
        self.strategy = resolve_strategy(strategy)
        #: the underlying TransferGraphConfig for TG-family strategies,
        #: ``None`` for strategies without one (e.g. transferability)
        self.config = getattr(self.strategy, "config", None)
        self.registry = registry
        self.cache_size = cache_size
        self._config_fp = self.strategy.fingerprint()
        # guarded by: self._lock
        self._cache: OrderedDict[tuple[str, str], Answer] = OrderedDict()
        #: catalog mutation-seq snapshot per cache key, taken when the
        #: pipeline landed in the cache — the "since" for incremental
        #: refresh.  guarded by: self._lock
        self._fit_seqs: dict[tuple[str, str], int] = {}
        self._stats = ServiceStats()  # guarded by: self._lock
        #: guards cache order/content and stat counters; never held across
        #: a fit, an answer materialisation or registry I/O
        self._lock = threading.Lock()

    @property
    def config_fp(self) -> str:
        """Fingerprint of this service's strategy (the cache-key suffix)."""
        return self._config_fp

    def check_strategy(self, spec: str | None) -> None:
        """Validate a request's optional ``strategy`` field.

        A single-strategy service answers only its own spec (or an
        omitted field); multi-strategy routing is the gateway's job.
        Alias spellings of the served spec pass (``random:0`` for
        ``random``), matching what ``get_strategy`` accepts; custom
        non-lowercase specs match exactly.
        """
        if (
            spec is None
            or spec == self.strategy.spec
            or canonical_spec(spec) == self.strategy.spec
        ):
            return
        if normalize_spec(spec) != self.strategy.spec:
            raise UnknownStrategyError(spec, [self.strategy.spec])

    # ------------------------------------------------------------------ #
    def _check_target(self, target: str) -> None:
        if target not in self.zoo.dataset_names():
            raise KeyError(
                f"unknown dataset {target!r}; known: {self.zoo.dataset_names()}"
            )

    def cache_get(self, target: str) -> Answer | None:
        """In-memory lookup with hit/miss accounting; ``None`` on a miss.

        A hit is the target's cached :class:`Answer` (its ``fitted`` is
        the pipeline).  Thread-safe.  Raises :class:`KeyError` for
        unknown targets (a hit is impossible for one, so the check only
        runs on the miss path).
        """
        key = (target, self._config_fp)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self._stats.cache_hits += 1
            else:
                self._stats.cache_misses += 1
        record_cache(hit=cached is not None)  # no-op without a trace
        if cached is not None:
            return cached
        self._check_target(target)
        return None

    def cache_put(self, target: str, fitted) -> Answer:
        """Materialise ``fitted``'s answer and swap both into the LRU.

        Runs on the calling thread (a fit worker, the serial facade, a
        refresh), never on a request's hot path.  The one ``rank`` call
        also settles the pipeline's lazy state — e.g. the target's
        transferability normalisation, recorded into the shared catalog
        — before any reader can see the pipeline.  Evicts the least
        recently used entries beyond ``cache_size``; thread-safe.
        """
        ranking = fitted.rank(self.zoo.model_ids())
        answer = Answer(fitted, ranking, dict(ranking))
        # Snapshot *after* the fit and the answer: both record derived
        # rows (lazy similarity/transferability fills) which the answer
        # already consumed, so they must not look dirty at refresh time.
        seq = self._catalog_seq()
        key = (target, self._config_fp)
        with self._lock:
            self._cache[key] = answer
            self._cache.move_to_end(key)
            if seq is not None:
                self._fit_seqs[key] = seq
            while len(self._cache) > self.cache_size:
                gone, _ = self._cache.popitem(last=False)
                self._fit_seqs.pop(gone, None)
                self._stats.evictions += 1
        return answer

    def load_or_fit(self, target: str, *, remote_fit=None):
        """Registry revive → fresh fit; returns the fitted pipeline.

        :meth:`cache_put` is what makes the result servable.  The caller
        is responsible for single-flight per cache key (the serial
        facade trivially is; the async router coalesces); stats are
        lock-guarded, the heavy work is not.

        ``remote_fit`` replaces the in-process ``strategy.fit`` with a
        callable returning the *packed* artifact —
        ``remote_fit(strategy, zoo, target) -> (meta, arrays)`` — which
        is how the router delivers a fit from a fit worker: the
        pipeline is revived here via ``strategy.unpack`` (against this
        process's zoo) and the worker's exact payload is written through
        to the registry, so thread- and worker-fitted artifacts are
        byte-identical.
        """
        set_outcome("cold")  # cache miss path, revive or fresh fit
        fitted = None
        if self.registry is not None:
            try:
                with span("fit.registry_load"):
                    fitted = self.registry.load(target, self.strategy, self.zoo)
                with self._lock:
                    self._stats.registry_hits += 1
            except ArtifactError:
                fitted = None  # absent or stale: fall through to a fit
        if fitted is None:
            if remote_fit is None:
                fitted = self.strategy.fit(self.zoo, target)
                with self._lock:
                    self._stats.fits += 1
                if self.registry is not None:
                    with span("fit.artifact_pack"):
                        self.registry.save(fitted, self.strategy, self.zoo)
            else:
                meta, arrays = remote_fit(self.strategy, self.zoo, target)
                with span("fit.artifact_unpack"):
                    fitted = self.strategy.unpack(meta, arrays, self.zoo)
                with self._lock:
                    self._stats.fits += 1
                if self.registry is not None:
                    with span("fit.artifact_pack"):
                        self.registry.save_packed(meta, arrays, self.strategy, target)
        return fitted

    def _catalog_seq(self) -> int | None:
        """Current catalog mutation seq, ``None`` for catalog-less zoos."""
        catalog = getattr(self.zoo, "catalog", None)
        seq = getattr(catalog, "mutation_seq", None)
        return seq if isinstance(seq, int) else None

    def _answer(self, target: str) -> Answer:
        """``target``'s answer: memory → registry → fresh fit."""
        cached = self.cache_get(target)
        if cached is not None:
            return cached
        return self.cache_put(target, self.load_or_fit(target))

    def cached_targets(self) -> list[str]:
        """Targets currently in memory, least → most recently used."""
        with self._lock:
            return [target for target, _ in self._cache]

    def record_query(self, started: float) -> None:
        """Count one query whose wall-clock began at ``started``.

        Public so the async router can attribute traffic it served
        directly from coalesced futures; thread-safe.
        """
        elapsed_ms = (time.perf_counter() - started) * 1e3
        with self._lock:
            self._stats.queries += 1
            self._stats.latencies_ms.observe(elapsed_ms)

    # ------------------------------------------------------------------ #
    def rank(self, target: str, top_k: int | None = None) -> list[tuple[str, float]]:
        """Models ranked for ``target``, best first (optionally truncated)."""
        started = time.perf_counter()
        ranking = self._answer(target).ranking[:top_k]
        self.record_query(started)
        return ranking

    def score_batch(self, pairs: list[tuple[str, str]]) -> np.ndarray:
        """Stored scores for (model, target) pairs, aligned to input.

        Each distinct target's answer is looked up once, in order of
        first appearance.
        """
        started = time.perf_counter()
        answers = {t: self._answer(t) for t in dict.fromkeys(t for _, t in pairs)}
        out = np.array([answers[t].scores[m] for m, t in pairs], dtype=np.float64)
        self.record_query(started)
        return out

    def handle(self, request: RankRequest | ScoreBatchRequest):
        """Answer one protocol request with its typed protocol response.

        This is the in-process face of the v1 wire protocol: the gateway,
        the HTTP front door, and ``repro rank`` all funnel through the
        same ``build`` constructors, so a response served over the wire
        is byte-identical to one built here.
        """
        self.check_strategy(getattr(request, "strategy", None))
        if isinstance(request, RankRequest):
            return RankResponse.build(
                request, self.rank(request.target, top_k=request.top_k)
            )
        if isinstance(request, ScoreBatchRequest):
            return ScoreBatchResponse.build(
                request, self.score_batch(list(request.pairs))
            )
        raise TypeError(f"unsupported request type {type(request).__name__}")

    # ------------------------------------------------------------------ #
    def warmup(self, targets: list[str] | None = None) -> dict[str, float]:
        """Pre-fit pipelines (write-through to the registry if configured).

        Returns seconds spent per target.  Warmup populates the caches
        but does not count as query traffic.
        """
        out: dict[str, float] = {}
        for target in targets if targets is not None else self.zoo.target_names():
            started = time.perf_counter()
            self._answer(target)
            out[target] = time.perf_counter() - started
        return out

    def refresh(self, target: str):
        """Incrementally update ``target``'s pipeline after catalog writes.

        The cheap path — a warm pipeline is in memory and the catalog's
        mutation log still reaches back to its fit — hands the dirty
        node set to :meth:`SelectionStrategy.refresh` (for TG
        strategies: localized re-walks + warm-started SGNS over the
        dirty neighborhood, O(changed-edges) instead of a full refit),
        swaps the refreshed pipeline and its new answer in through
        :meth:`cache_put`, and writes the artifact through to the
        registry.  When nothing changed, the warm pipeline is returned
        untouched.

        Falls back to drop-and-refit when there is no warm pipeline, no
        catalog mutation log (stub zoos), or the log was trimmed past
        the fit snapshot — the honest full-refit path.

        Returns the (refreshed or refit) fitted pipeline.
        """
        self._check_target(target)
        key = (target, self._config_fp)
        with self._lock:
            cached = self._cache.get(key)
            since = self._fit_seqs.get(key)
        dirty: set[str] | None = None
        catalog = getattr(self.zoo, "catalog", None)
        if cached is not None and since is not None and catalog is not None:
            dirty = catalog.dirty_nodes(since)
        if dirty is not None and not dirty:
            return cached.fitted  # no catalog writes since the fit
        if cached is None or dirty is None:
            self.invalidate(target)
            return self.cache_put(target, self.load_or_fit(target)).fitted

        with span("refresh.strategy"):
            refreshed = self.strategy.refresh(self.zoo, target, cached.fitted, dirty)
        self.cache_put(target, refreshed)
        with self._lock:
            self._stats.refreshes += 1
        if self.registry is not None:
            with span("refresh.artifact_pack"):
                self.registry.save(refreshed, self.strategy, self.zoo)
        return refreshed

    def invalidate(self, target: str, refresh: bool = False) -> None:
        """Drop ``target``'s pipeline from memory and the registry.

        Call after catalog updates (new history rows, new models) so the
        next query serves fresh ground truth.  With ``refresh=True`` the
        stale pipeline is *updated in place* via :meth:`refresh` —
        localized re-walks over the dirty neighborhood instead of
        throwing the whole fitted graph away — falling back to
        drop-and-refit when no warm state exists.
        """
        if refresh:
            # Counted as a refresh (or, on the fallback path, as the
            # invalidation the drop-and-refit performs) — not both.
            self.refresh(target)
            return
        key = (target, self._config_fp)
        with self._lock:
            self._cache.pop(key, None)
            self._fit_seqs.pop(key, None)
            self._stats.invalidations += 1
        if self.registry is not None:
            self.registry.delete(target, self.strategy)

    def stats(self) -> dict[str, float]:
        """Counter + latency summary since construction."""
        return self.stats_snapshot().summary()

    def stats_snapshot(self) -> ServiceStats:
        """A copy of the raw counters (diffable via ``ServiceStats.since``)."""
        with self._lock:
            return self._stats.copy()
