"""Process fit plane: cold fits in worker processes, artifacts on the wire.

The router's thread pool only overlaps the GIL-released stretches of a
fit; walk generation and SGNS are pure Python, so one box serves cold
traffic at roughly one core.  This module runs the fit itself in a
``ProcessPoolExecutor`` worker and ships back the *strategy-packed*
artifact — the same ``(meta, arrays)`` pair the registry persists — so

- nothing unpicklable ever crosses the process boundary (no fitted
  pipelines, no live catalogs, no locks): the task is
  ``(pickled strategy, zoo reference, target)`` and the result is JSON
  meta + numpy arrays + a span-record list;
- the parent revives the pipeline with ``strategy.unpack`` against its
  own zoo, exactly as a registry-warm load would, and writes the
  worker's packed payload through to the registry byte-for-byte;
- derived scores the worker recorded into *its* catalog copy travel
  inside the packed assembler state (the per-dataset transferability
  normalisation cache) — children never mutate the parent's catalog.

The worker-side task itself — zoo hydration (cached per zoo
fingerprint), the fit, the warm predict, the pack — lives in
:mod:`repro.fleet.work` since the socket fleet runs the very same
function in its ``repro fit-worker`` daemons; the typed error family
lives in :mod:`repro.fleet.errors`.

Failure semantics: a worker that dies mid-fit (OOM kill, segfault)
surfaces as :class:`FitWorkerCrashError` and a fit exceeding
``fit_timeout_s`` as :class:`FitTimeoutError` — both typed
:class:`FitPlaneError` subclasses that shed the router's coalesced group
for that target.  A crash permanently breaks the underlying pool, so the
executor discards and lazily rebuilds it; the router stays serviceable.
Ordinary exceptions raised by ``strategy.fit`` propagate with their
original type, matching the thread path.  The pool uses the ``spawn``
start method: forking a multi-threaded server can inherit held locks
into the child, and the per-worker interpreter startup is paid once per
(long-lived) worker.
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context

from repro.fleet.errors import (
    FitPlaneError,
    FitTimeoutError,
    FitWorkerCrashError,
)
from repro.fleet.work import run_fit, warm_worker, zoo_ref_for

__all__ = ["ProcessFitExecutor"]


class ProcessFitExecutor:
    """A crash-tolerant ``ProcessPoolExecutor`` for cold fits.

    ``submit_fit`` is *blocking* — the router calls it from its fit
    threads, which keeps every queueing/coalescing/stats mechanism
    identical between executors while the actual CPU work runs in
    ``workers`` separate processes.

    A :class:`BrokenProcessPool` (worker killed mid-fit) permanently
    poisons a pool, so the executor drops it and rebuilds lazily on the
    next submit; concurrent fits that were in flight on the broken pool
    all surface :class:`FitWorkerCrashError`.
    """

    def __init__(self, workers: int = 2, *, fit_timeout_s: float | None = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.fit_timeout_s = fit_timeout_s
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None  # guarded by: self._lock
        self._closed = False  # guarded by: self._lock

    # -- pool lifecycle ------------------------------------------------- #
    def _get_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise FitPlaneError("fit executor is closed")
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=get_context("spawn")
                )
            return self._pool

    def _discard(self, broken: ProcessPoolExecutor) -> None:
        with self._lock:
            if self._pool is broken:
                self._pool = None
        broken.shutdown(wait=False)

    def prestart(self, zoo=None, hold_s: float = 0.25) -> int:
        """Spawn every worker now (optionally hydrating ``zoo`` in each).

        Without this, workers spawn lazily on the first cold fits and
        the first ``workers`` requests each pay interpreter start + zoo
        hydration on top of their fit.  Returns the worker count.
        """
        ref = None if zoo is None else zoo_ref_for(zoo)
        pool = self._get_pool()
        futures = [pool.submit(warm_worker, ref, hold_s) for _ in range(self.workers)]
        for future in futures:
            future.result()
        return self.workers

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # -- fits ----------------------------------------------------------- #
    def submit_fit(self, strategy, zoo, target: str, *, timeout_s=None):
        """Fit ``target`` in a worker; returns ``(meta, arrays, spans)``.

        Blocks until the worker finishes (the caller is a router fit
        thread).  ``timeout_s`` overrides the executor-level
        ``fit_timeout_s`` for this fit.  Raises
        :class:`FitWorkerCrashError` / :class:`FitTimeoutError` for
        plane failures, re-raises the original exception for an
        ordinary fit failure, and raises :class:`FitPlaneError` when
        the strategy cannot cross the process boundary at all (e.g. a
        test-patched fit closure).
        """
        try:
            blob = pickle.dumps(strategy)
        except Exception as exc:
            raise FitPlaneError(
                f"strategy {getattr(strategy, 'spec', strategy)!r} is not "
                f"picklable and cannot fit in a worker process (use "
                f"fit_executor='thread'): {exc}"
            ) from exc
        ref = zoo_ref_for(zoo)
        pool = self._get_pool()
        future = pool.submit(run_fit, blob, ref, target)
        timeout = timeout_s if timeout_s is not None else self.fit_timeout_s
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            future.cancel()  # drops it if still queued; running fits
            # finish as orphans — their result is simply discarded
            raise FitTimeoutError(
                f"fit for target {target!r} exceeded "
                f"{timeout:.1f}s in the worker pool"
            ) from None
        except BrokenProcessPool as exc:
            self._discard(pool)
            raise FitWorkerCrashError(
                f"fit worker died while fitting target {target!r} "
                f"(pool discarded; it will be rebuilt on the next fit)"
            ) from exc
