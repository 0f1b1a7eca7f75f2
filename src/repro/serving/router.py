"""Async request router: inline warm answers, single-flight cold fits.

:class:`SelectionService` caches each fitted target's whole answer (an
:class:`~repro.serving.service.Answer`), so a warm query is a lookup;
but a cold query fits a whole pipeline, and the serial facade makes N
concurrent cold queries for one target pay N fits.
:class:`AsyncSelectionRouter` fronts one service with an asyncio event
loop:

- **inline warm answers** — a cache hit is answered on the event loop
  by slicing the stored ranking or indexing the stored scores: no
  executor hop, no predict, no catalog read, no per-pipeline lock (the
  loop only reads finished, immutable answers).  Each ``rank`` /
  ``score_batch`` still suspends once (``await asyncio.sleep(0)``), so a
  client looping on warm answers cannot starve the other tasks on the
  loop — another connection, or a refresh finishing on a thread;
- **single-flight coalescing** — concurrent misses for the same
  ``(target, config_fp)`` key await one in-flight fit future; the fit
  runs once no matter how many clients asked for it, and
  ``score_batch`` awaits only its missing targets;
- **thread-pool offload** — fits and revives are CPU-bound, so they run
  in a fit pool while the event loop keeps answering; the fit job also
  materialises the new pipeline's answer
  (:meth:`SelectionService.cache_put`), so fit workers stay the only
  catalog writers.  Distinct cold targets fit in parallel (derived-score
  recording into the shared zoo catalog is lock-guarded — see
  :attr:`repro.store.ZooCatalog.lock` — so ``fit_workers`` defaults
  above one).  The pool is the router's own unless one is injected
  (``fit_pool``): a gateway without a fleet shares one pool among its
  routers of a strategy, so fit threads — and the malloc arenas each new
  thread gets — do not multiply with namespaces;
- **remote fits** — pure-Python fit stages (walks, SGNS) hold the GIL,
  so the thread pool alone serves cold traffic at roughly one core.  A
  router given a :class:`~repro.fleet.FleetCoordinator` (``fleet``)
  ships every cold fit to its ``repro fit-worker`` processes, on this
  box or others; the fit threads then merely block on the fleet —
  queueing, coalescing, shedding, and stats behave identically either
  way;
- **bounded cold-fit queue** — one admission rule: at most
  ``max_pending_fits`` cold fits may be admitted (in flight or waiting
  for a fit worker).  A request that finds the queue full is shed with
  :class:`QueueFullError`, whose ``retry_after_s`` hint is derived from
  the p95 of every timed fit; :meth:`AsyncSelectionRouter.warmup` waits
  for a slot instead;
- **router stats** — coalesced-request count, rejections, peak queue
  depth, and per-stage latency histograms (queue wait / fit / inline
  answer, the last still reported as ``predict_*``), merged with the
  service's counters by :meth:`AsyncSelectionRouter.stats`.  Every
  percentile is read from :class:`repro.obs.metrics.Histogram` bucket
  counts over the router's lifetime.

The router also answers typed protocol requests
(:meth:`AsyncSelectionRouter.handle`), sharing the response constructors
with :meth:`SelectionService.handle` so the async and serial paths
cannot diverge.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.obs import graft_spans, run_in_context, set_outcome, span
from repro.obs.metrics import Histogram
from repro.serving.protocol import (
    RankRequest,
    RankResponse,
    ScoreBatchRequest,
    ScoreBatchResponse,
)
from repro.serving.service import Answer, SelectionService, ServiceStats

__all__ = [
    "AsyncSelectionRouter",
    "RouterStats",
    "QueueFullError",
]

_COUNTER_FIELDS = (
    "requests",
    "coalesced",
    "rejections",
    "failed_waits",
    "cold_fits",
)

_STAGES = ("queue_wait_ms", "fit_ms", "predict_ms")


class QueueFullError(RuntimeError):
    """The bounded cold-fit queue is full; retry after ``retry_after_s``."""

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = retry_after_s


@dataclass
class RouterStats:
    """Counters and per-stage latency histograms accumulated by the router."""

    requests: int = 0
    #: requests that awaited another request's in-flight fit
    coalesced: int = 0
    #: requests shed because the cold-fit queue was full
    rejections: int = 0
    #: coalesced waiters whose originator's fit *failed* (not shed) —
    #: their outcome merges to "error", not "coalesced"
    failed_waits: int = 0
    #: cold fits the router admitted (== originators, not waiters)
    cold_fits: int = 0
    #: highest number of simultaneously pending cold fits observed
    peak_pending_fits: int = 0
    queue_wait_ms: Histogram = field(default_factory=Histogram, repr=False)
    fit_ms: Histogram = field(default_factory=Histogram, repr=False)
    predict_ms: Histogram = field(default_factory=Histogram, repr=False)

    def record_latency(self, stage: str, ms: float) -> None:
        """Record one ``stage`` sample ('queue_wait_ms'/'fit_ms'/...)."""
        getattr(self, stage).observe(ms)

    def copy(self) -> "RouterStats":
        return RouterStats(
            peak_pending_fits=self.peak_pending_fits,
            **{f: getattr(self, f) for f in _COUNTER_FIELDS},
            **{s: getattr(self, s).copy() for s in _STAGES},
        )

    def merge(self, other: "RouterStats") -> "RouterStats":
        """Pool another snapshot in (fleet aggregation over namespaces):
        counters and histogram counts add, the peak stays a max."""
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.peak_pending_fits = max(self.peak_pending_fits, other.peak_pending_fits)
        for name in _STAGES:
            getattr(self, name).merge(getattr(other, name))
        return self

    def latency_summary(self) -> dict[str, float]:
        """The per-stage latency slice of :meth:`summary` alone.

        Compare responses embed this per strategy (merged with the
        service's per-query slice), so it stays a flat name->float map.
        """
        (queue_wait_p95,) = self.queue_wait_ms.percentiles((95,))
        fit_p50, fit_p95 = self.fit_ms.percentiles((50, 95))
        predict_p50, predict_p95 = self.predict_ms.percentiles((50, 95))
        return {
            "queue_wait_p95_ms": queue_wait_p95,
            "fit_p50_ms": fit_p50,
            "fit_p95_ms": fit_p95,
            "predict_p50_ms": predict_p50,
            "predict_p95_ms": predict_p95,
        }

    def summary(self) -> dict[str, float]:
        return {
            "router_requests": self.requests,
            "coalesced": self.coalesced,
            "rejections": self.rejections,
            "failed_waits": self.failed_waits,
            "cold_fits": self.cold_fits,
            "peak_pending_fits": self.peak_pending_fits,
            **self.latency_summary(),
        }


def _retrieve_exception(future: asyncio.Future) -> None:
    # A failed fit with zero coalesced waiters would otherwise log
    # "exception was never retrieved" — the originator re-raises its own
    # copy, so marking the future's copy retrieved loses nothing.
    if not future.cancelled():
        future.exception()


class AsyncSelectionRouter:
    """Asyncio front-end over one :class:`SelectionService`.

    Parameters
    ----------
    service:
        The (cold or warm) service to route to.  The router is the
        concurrency front door; don't drive the same service's
        synchronous API from other threads at the same time.
    max_pending_fits:
        Bound on simultaneously admitted cold fits (in flight or queued
        for a fit worker).  Coalesced waiters don't count: they hold no
        queue slot, they only await the originator's future.  A request
        that finds every slot taken is shed with :class:`QueueFullError`;
        :meth:`warmup` waits for a slot instead.
    retry_after_s:
        Floor for the retry hint; the adaptive hint is the p95 latency
        of every timed fit times the queue-drain rounds ahead of the
        shed request (pending fits / fit workers).
    fit_workers:
        Cold-fit parallelism: the threads fit jobs run on.  Distinct
        cold targets fit in parallel: derived similarity/transferability
        recording into the shared zoo catalog is serialised by the
        catalog's own lock, or, with a fleet, stays worker-local and
        folds back through the packed artifact.
    fit_timeout_s:
        With a fleet: a fit exceeding this many seconds raises
        :class:`~repro.fleet.errors.FitTimeoutError`, shedding its
        coalesced group.  ``None`` (default) never times out.
    fleet:
        A :class:`~repro.fleet.FleetCoordinator` to send every cold fit
        to; its worker returns the strategy-packed artifact, which the
        router unpacks and writes through to the registry
        byte-identically to a fit on its own threads.  ``None``
        (default) fits on the router's thread pool.  The fleet belongs
        to its owner (a gateway shares one among all its routers), so
        :meth:`close` leaves it running.
    fit_pool:
        A shared :class:`~concurrent.futures.ThreadPoolExecutor` to run
        fit jobs on instead of a pool of the router's own; its owner
        (the gateway) shuts it down, :meth:`close` leaves it running.
        ``None`` (default) gives the router a ``fit_workers``-thread
        pool it owns.
    """

    def __init__(
        self,
        service: SelectionService,
        *,
        max_pending_fits: int = 8,
        retry_after_s: float = 0.5,
        fit_workers: int = 2,
        fit_timeout_s: float | None = None,
        fleet=None,
        fit_pool: ThreadPoolExecutor | None = None,
    ):
        if max_pending_fits < 1:
            raise ValueError("max_pending_fits must be >= 1")
        if fit_workers < 1:
            raise ValueError("fit_workers must be >= 1")
        self.service = service
        self.max_pending_fits = max_pending_fits
        self.retry_after_s = retry_after_s
        self.fit_workers = fit_workers
        self._fit_timeout_s = fit_timeout_s
        self._fleet = fleet
        #: an injected pool is shared (gateway-owned); close() leaves it
        self._owns_fit_pool = fit_pool is None
        if fit_pool is None:
            fit_pool = ThreadPoolExecutor(
                max_workers=fit_workers, thread_name_prefix="router-fit"
            )
        self._fit_pool = fit_pool
        self._stats = RouterStats()  # guarded by: self._stats_lock
        self._stats_lock = threading.Lock()
        #: in-flight fit futures keyed by (target, config_fp); mutated
        #: only from the event-loop thread, so no lock is needed
        self._inflight: dict[tuple[str, str], asyncio.Future] = {}
        self._pending_fits = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._capacity: asyncio.Condition | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # loop binding
    # ------------------------------------------------------------------ #
    def _bind_loop(self) -> asyncio.AbstractEventLoop:
        """The running loop; rebinds loop-local state across asyncio.runs."""
        if self._closed:
            raise RuntimeError("router is closed")
        loop = asyncio.get_running_loop()
        if loop is not self._loop:
            if self._inflight:
                raise RuntimeError(
                    "router used from a new event loop while fits from a "
                    "previous loop are still in flight"
                )
            self._loop = loop
            self._capacity = asyncio.Condition()
        return loop

    # ------------------------------------------------------------------ #
    # single-flight fit acquisition
    # ------------------------------------------------------------------ #
    def _retry_after_hint(self) -> float:
        """Adaptive backpressure: when will a retry plausibly be admitted?

        The p95 of every timed fit (not the mean: shed clients who
        return too early are shed again, so the hint must cover slow
        fits) times the number of queue-drain rounds ahead of the shed
        request — pending fits spread over the fit workers.  Falls back
        to the configured floor until a fit has been timed.  The p95 is
        read from the fit histogram's bucket counts, O(buckets).
        """
        with self._stats_lock:
            fit_ms = self._stats.fit_ms
        (p95_ms,) = fit_ms.percentiles((95,))
        if p95_ms <= 0.0:
            return self.retry_after_s
        drain_rounds = math.ceil((self._pending_fits or 1) / self.fit_workers)
        return max(self.retry_after_s, (p95_ms / 1e3) * drain_rounds)

    async def _admit_cold_fit(self, target: str, wait: bool) -> None:
        """Take one cold-fit queue slot; a full queue sheds unless ``wait``."""
        if self._pending_fits >= self.max_pending_fits:
            if not wait:
                hint = self._retry_after_hint()
                with self._stats_lock:
                    self._stats.rejections += 1
                set_outcome("shed")
                raise QueueFullError(
                    f"cold-fit queue full ({self._pending_fits} pending, "
                    f"limit {self.max_pending_fits}); target {target!r} "
                    f"shed — retry in {hint:.2f}s",
                    retry_after_s=hint,
                )
            async with self._capacity:
                await self._capacity.wait_for(
                    lambda: self._pending_fits < self.max_pending_fits
                )
        self._pending_fits += 1
        with self._stats_lock:
            self._stats.cold_fits += 1
            self._stats.peak_pending_fits = max(
                self._stats.peak_pending_fits, self._pending_fits
            )

    async def _release_cold_fit(self) -> None:
        self._pending_fits -= 1
        async with self._capacity:
            self._capacity.notify_all()

    def _remote_fit(self, strategy, zoo, target: str):
        """Fleet fit: block a fit thread on a remote worker.

        The ``fit-worker`` ships back ``(meta, arrays, spans)``; its
        fit-stage spans are grafted onto the live request trace here
        (this thread carries the request context via
        :func:`repro.obs.run_in_context`) and the packed payload is
        returned for :meth:`SelectionService.load_or_fit` to unpack and
        write through.
        """
        meta, arrays, spans = self._fleet.submit_fit(
            strategy, zoo, target, timeout_s=self._fit_timeout_s
        )
        graft_spans(spans)
        return meta, arrays

    def _fit_job(self, target: str) -> Answer:
        """Runs on a fit worker: acquire the pipeline, cache its answer.

        The fit (or revive) and the answer's one ``rank`` call both run
        here, off the event loop: fit workers stay the only catalog
        writers (their derived-score recording is serialised by
        ``ZooCatalog.lock``), and the loop only ever reads finished
        answers.
        """
        remote = self._remote_fit if self._fleet is not None else None
        fitted = self.service.load_or_fit(target, remote_fit=remote)
        return self.service.cache_put(target, fitted)

    async def _answer(self, target: str, wait: bool = False) -> Answer:
        """``target``'s cached answer; a miss awaits its coalesced fit."""
        self._bind_loop()
        cached = self.service.cache_get(target)  # counts hit/miss
        if cached is not None:
            return cached
        return await self._fit(target, wait)

    async def _fit(self, target: str, wait: bool = False) -> Answer:
        """Fit a missed ``target`` with single-flight coalescing.

        Exactly one fit job per (target, config fingerprint) is in
        flight at any moment; every concurrent request for that key
        awaits the same future.  ``wait`` parks the originator for a queue
        slot instead of shedding it (:meth:`warmup`).
        """
        loop = self._bind_loop()
        key = (target, self.service.config_fp)
        inflight = self._inflight.get(key)
        if inflight is not None:
            waited = time.perf_counter()
            with self._stats_lock:
                self._stats.coalesced += 1
            set_outcome("coalesced")
            try:
                # shield: cancelling one waiter must not cancel the
                # future every other participant (and the originator's
                # set_result) depends on.
                with span("queue.coalesced_wait"):
                    answer = await asyncio.shield(inflight)
            except QueueFullError:
                # The originator was shed while this request waited on
                # it; that sheds the whole coalesced group.
                with self._stats_lock:
                    self._stats.rejections += 1
                set_outcome("shed")
                raise
            except BaseException:
                # Any other failure of the *originator's* fit (a fit
                # exception, a fit-plane crash/timeout, a cancelled
                # originator) also fails every waiter — count it and
                # merge the outcome to "error" instead of leaving the
                # trace claiming a successful coalesced wait.  A waiter
                # cancelled in its own right (future still pending)
                # stays out of the counter: nothing failed group-wide.
                if (
                    inflight.done()
                    and not inflight.cancelled()
                    and inflight.exception() is not None
                ):
                    with self._stats_lock:
                        self._stats.failed_waits += 1
                    set_outcome("error")
                raise
            with self._stats_lock:
                self._stats.record_latency(
                    "queue_wait_ms", (time.perf_counter() - waited) * 1e3
                )
            return answer

        # Register the future BEFORE waiting for queue capacity: admission
        # may suspend (warmup waits for a slot), and any same-key request
        # arriving during that suspension must coalesce, not start a
        # second fit.
        future = loop.create_future()
        future.add_done_callback(_retrieve_exception)
        self._inflight[key] = future
        admitted = False
        try:
            await self._admit_cold_fit(target, wait)
            admitted = True
            started = time.perf_counter()
            # run_in_context: propagate the request's trace onto the fit
            # worker so fit.* spans land on the originating request
            answer = await loop.run_in_executor(
                self._fit_pool, run_in_context(self._fit_job, target)
            )
        except BaseException as exc:
            # A cancelled originator sheds the whole coalesced group
            # (waiters see the CancelledError; a retry hits the cache if
            # the executor fit still completed).
            if not future.done():
                future.set_exception(exc)
            raise
        else:
            if not future.done():
                future.set_result(answer)
            with self._stats_lock:
                self._stats.record_latency(
                    "fit_ms", (time.perf_counter() - started) * 1e3
                )
            return answer
        finally:
            del self._inflight[key]
            if admitted:
                await self._release_cold_fit()

    # ------------------------------------------------------------------ #
    # async entry points
    # ------------------------------------------------------------------ #
    def _record_answer(self, started: float, answered: float) -> None:
        """Book one served query: its inline-answer time and latency."""
        with self._stats_lock:
            self._stats.record_latency(
                "predict_ms", (time.perf_counter() - answered) * 1e3
            )
        self.service.record_query(started)

    async def rank(self, target: str, top_k: int | None = None
                   ) -> list[tuple[str, float]]:
        """Async :meth:`SelectionService.rank`; identical results."""
        started = time.perf_counter()
        with self._stats_lock:
            self._stats.requests += 1
        await asyncio.sleep(0)  # suspend once even when warm (module doc)
        answer = await self._answer(target)
        answered = time.perf_counter()
        ranking = answer.ranking[:top_k]
        self._record_answer(started, answered)
        return ranking

    async def score_batch(self, pairs: list[tuple[str, str]]) -> np.ndarray:
        """Async :meth:`SelectionService.score_batch`; identical results.

        Warm targets are read inline; only the missing ones await fits,
        concurrently (each subject to coalescing).
        """
        started = time.perf_counter()
        with self._stats_lock:
            self._stats.requests += 1
        await asyncio.sleep(0)  # suspend once even when warm (module doc)
        self._bind_loop()
        answers = {
            t: self.service.cache_get(t) for t in dict.fromkeys(t for _, t in pairs)
        }
        missing = [t for t, answer in answers.items() if answer is None]
        if missing:
            fetched = await asyncio.gather(*(self._fit(t) for t in missing))
            answers.update(zip(missing, fetched))
        answered = time.perf_counter()
        out = np.array([answers[t].scores[m] for m, t in pairs], dtype=np.float64)
        self._record_answer(started, answered)
        return out

    async def handle(self, request: RankRequest | ScoreBatchRequest):
        """Async :meth:`SelectionService.handle`: protocol in, protocol out.

        Responses go through the same ``build`` constructors as the
        serial facade, so a ranking served through the router (and the
        HTTP front door above it) is byte-identical to one served
        in-process.
        """
        self.service.check_strategy(getattr(request, "strategy", None))
        if isinstance(request, RankRequest):
            return RankResponse.build(
                request, await self.rank(request.target, top_k=request.top_k)
            )
        if isinstance(request, ScoreBatchRequest):
            return ScoreBatchResponse.build(
                request, await self.score_batch(list(request.pairs))
            )
        raise TypeError(f"unsupported request type {type(request).__name__}")

    async def warmup(self, targets: list[str] | None = None) -> dict[str, float]:
        """Pre-fit pipelines concurrently; seconds spent per target.

        Warmup never sheds: a full cold-fit queue makes it wait for a
        slot, and (like the serial facade) it doesn't count as query
        traffic.
        """
        if targets is None:
            targets = self.service.zoo.target_names()

        async def one(target: str) -> float:
            started = time.perf_counter()
            await self._answer(target, wait=True)
            return time.perf_counter() - started

        timings = await asyncio.gather(*(one(t) for t in targets))
        return dict(zip(targets, timings))

    # ------------------------------------------------------------------ #
    # stats + lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, float]:
        """Service counters merged with router-level counters/latencies."""
        return {**self.service.stats(), **self.router_stats().summary()}

    def router_stats(self) -> RouterStats:
        """A copy of the raw router counters."""
        with self._stats_lock:
            return self._stats.copy()

    def stats_snapshot(self) -> tuple[ServiceStats, RouterStats]:
        """Paired (service, router) snapshots, as ``/v1/stats`` pools them."""
        return self.service.stats_snapshot(), self.router_stats()

    def fit_cost_summary(self) -> dict[str, float]:
        """Measured cold-fit cost: fit-latency percentiles and count.

        ``/v1/stats`` and healthz expose it per strategy.
        """
        with self._stats_lock:
            fit_ms = self._stats.fit_ms.copy()
        p50, p95 = fit_ms.percentiles((50, 95))
        return {
            "fit_ms_p50": p50,
            "fit_ms_p95": p95,
            "fits_timed": float(fit_ms.count),
        }

    @property
    def pending_fits(self) -> int:
        """Live cold-fit queue depth (exported as a metrics gauge)."""
        return self._pending_fits

    def close(self) -> None:
        """Shut the router's own fit pool down; idempotent.

        A shared fit pool and the fleet are left running — other routers
        may still use them, and their owner closes them.
        """
        if not self._closed:
            self._closed = True
            if self._owns_fit_pool:
                self._fit_pool.shutdown(wait=True)

    async def __aenter__(self) -> "AsyncSelectionRouter":
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()
