"""FleetCoordinator: registration, heartbeat, dispatch, typed failover.

The coordinator is the gateway-side half of the fit fleet.  It runs an
asyncio socket server on its *own* daemon thread and private event loop
— the serving event loop never touches fleet IO — and exposes one
blocking ``submit_fit(strategy, zoo, target) -> (meta, arrays, spans)``
call, the ``_remote_fit`` path of every router given this coordinator
(a gateway passes its ``fleet`` to all of its routers).  Router fit
threads block on ``run_coroutine_threadsafe(...).result()`` while the
dispatch runs on the coordinator loop.  The workers are ``repro
fit-worker`` daemons, on this box (one per core for multi-core fitting)
or on others.

Worker lifecycle:

1. a ``repro fit-worker`` connects and sends HELLO (wire version, name,
   pid, auth nonce); a version-skewed or silent client is dropped
   before it can receive work;
2. with a fleet secret configured the coordinator interposes a mutual
   CHALLENGE/AUTH round — its CHALLENGE carries an HMAC proof over the
   worker's nonce, the worker answers with a proof over the challenge
   nonce, and a client that cannot produce it is dropped unregistered
   (see the trust-model note in :mod:`repro.fleet.wire`); then the
   coordinator replies REGISTER with an assigned worker id and the
   heartbeat cadence, and the worker joins the live set;
3. HEARTBEAT frames (and any result frame) refresh ``last_seen``; a
   worker silent for ``heartbeat_misses`` intervals is reaped;
4. on disconnect or reaping, every fit outstanding on that worker is
   retried **once** on another live worker — if none remains (or the
   retry's worker also dies) the coalesced group sheds with
   :class:`~repro.fleet.errors.FitWorkerCrashError`.

Dispatch picks the live worker with the fewest outstanding fits
(ties broken by registration order), bounds each fit by the caller's
``timeout_s`` (:class:`~repro.fleet.errors.FitTimeoutError`, the
worker's late result is discarded), and surfaces an empty fleet as
:class:`~repro.fleet.errors.NoWorkersError` — always typed, never hung.

Observability: pass the gateway's :class:`~repro.obs.Observability` to
export ``repro_fleet_workers`` (live gauge) and
``repro_fleet_dispatch_total{outcome}`` with outcomes ``ok`` /
``fit_error`` (the strategy or the worker-side plane raised) /
``retry`` / ``crash`` / ``timeout`` / ``no_workers``.
"""

from __future__ import annotations

import asyncio
import hmac
import importlib
import itertools
import pickle
import threading
import time

from repro.fleet import wire
from repro.fleet.errors import (
    FitPlaneError,
    FitTimeoutError,
    FitWorkerCrashError,
    NoWorkersError,
    WireError,
)
from repro.fleet.work import zoo_ref_for

__all__ = ["FleetCoordinator"]

#: a connection that has not completed HELLO within this window is not
#: a fleet worker; drop it before it can occupy the accept loop
_HELLO_TIMEOUT_S = 10.0


class _WorkerLost(Exception):
    """Internal: the worker holding an attempt died; the dispatch loop
    decides whether to retry or shed."""


class _Pending:
    """One in-flight fit attempt awaiting its FIT_RESULT/FIT_ERROR."""

    __slots__ = ("fit_id", "target", "future")

    def __init__(self, fit_id: str, target: str, future: asyncio.Future):
        self.fit_id = fit_id
        self.target = target
        self.future = future


class _Worker:
    """Coordinator-side state for one registered fit worker."""

    __slots__ = (
        "worker_id",
        "name",
        "pid",
        "writer",
        "write_lock",
        "outstanding",
        "last_seen",
        "fits_done",
        "alive",
        "order",
    )

    def __init__(self, worker_id, name, pid, writer, order, now):
        self.worker_id = worker_id
        self.name = name
        self.pid = pid
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.outstanding: dict[str, _Pending] = {}
        self.last_seen = now
        self.fits_done = 0
        self.alive = True
        self.order = order


class FleetCoordinator:
    """Accept fit workers; dispatch cold fits with typed failover.

    All mutable worker/dispatch state lives on the coordinator's event
    loop thread; ``self._lock`` only makes the worker map readable from
    other threads (``worker_count``, ``fleet_summary``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_interval_s: float = 2.0,
        heartbeat_misses: int = 3,
        secret: str | bytes | None = None,
        obs=None,
    ):
        if heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be > 0")
        if heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be >= 1")
        self._host = host
        self._requested_port = port
        #: shared fleet-auth secret; None accepts any client that can
        #: reach the listener (loopback/trusted networks only)
        self._secret = secret
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_misses = heartbeat_misses
        self._obs = obs
        self.address: tuple[str, int] | None = None
        self._lock = threading.Lock()
        self._workers: dict[str, _Worker] = {}  # guarded by: self._lock
        self._pending: dict[str, _Pending] = {}  # loop thread only
        self._worker_seq = itertools.count(1)
        self._fit_seq = itertools.count(1)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._closed = False
        if obs is not None:
            obs.watch_fleet_workers(lambda: self.worker_count)

    # ------------------------------------------------------------------ #
    # lifecycle (called from any thread)
    # ------------------------------------------------------------------ #
    def start(self) -> tuple[str, int]:
        """Bind the listener (port 0 = ephemeral); returns (host, port)."""
        with self._lock:
            if self._closed:
                raise FitPlaneError("fleet coordinator is closed")
            if self._thread is not None:
                raise FitPlaneError("fleet coordinator already started")
            self._thread = threading.Thread(
                target=self._thread_main, name="fleet-coordinator", daemon=True
            )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._startup_error is not None:
            raise FitPlaneError(
                f"fleet coordinator failed to bind "
                f"{self._host}:{self._requested_port}: {self._startup_error}"
            ) from self._startup_error
        if self.address is None:
            raise FitPlaneError("fleet coordinator did not start in time")
        return self.address

    def close(self) -> None:
        """Stop accepting, drop every worker, join the loop; idempotent."""
        with self._lock:
            already = self._closed
            self._closed = True
            thread = self._thread
        if already or thread is None:
            return
        # A close() racing startup must not miss the shutdown event:
        # _loop/_shutdown are published before _started is set (even on
        # early loop death, via _thread_main's finally), so wait for it.
        self._started.wait(timeout=30.0)
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None and thread.is_alive():
            try:
                loop.call_soon_threadsafe(shutdown.set)
            except RuntimeError:
                pass  # loop already gone
        thread.join(timeout=10.0)

    def __enter__(self) -> "FleetCoordinator":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        finally:
            self._started.set()  # unblock start() even on early death

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._serve, self._host, self._requested_port
            )
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            return
        self.address = server.sockets[0].getsockname()[:2]
        self._started.set()
        reaper = asyncio.create_task(self._reap())
        try:
            async with server:
                await self._shutdown.wait()
        finally:
            reaper.cancel()
            for worker in list(self._workers.values()):
                self._lose_worker(worker, "coordinator shutting down")

    # ------------------------------------------------------------------ #
    # fit submission (called from router fit threads)
    # ------------------------------------------------------------------ #
    def submit_fit(self, strategy, zoo, target: str, *, timeout_s=None):
        """Fit ``target`` on a fleet worker; returns ``(meta, arrays, spans)``.

        Blocking — the caller is a router fit thread.  ``timeout_s``
        bounds the dispatch (None waits for the worker).  Raises the
        typed :class:`~repro.fleet.errors.FitPlaneError` family for
        plane failures and re-raises ordinary fit exceptions with their
        original type.
        """
        with self._lock:
            if self._closed:
                raise FitPlaneError("fleet coordinator is closed")
            loop = self._loop
        if loop is None or not loop.is_running():
            raise FitPlaneError("fleet coordinator is not started")
        try:
            blob = pickle.dumps(strategy)
        except Exception as exc:
            raise FitPlaneError(
                f"strategy {getattr(strategy, 'spec', strategy)!r} is not "
                f"picklable and cannot fit on a fleet worker (serve it "
                f"without a fleet): {exc}"
            ) from exc
        zoo_blob = pickle.dumps(zoo_ref_for(zoo))
        future = asyncio.run_coroutine_threadsafe(
            self._run_fit(blob, zoo_blob, target, timeout_s), loop
        )
        return future.result()

    def wait_for_workers(self, count: int, timeout_s: float = 30.0) -> int:
        """Block until ``count`` workers are registered; returns the count."""
        deadline = time.monotonic() + timeout_s
        while True:
            live = self.worker_count
            if live >= count:
                return live
            if time.monotonic() >= deadline:
                raise FitPlaneError(
                    f"only {live}/{count} fleet workers registered "
                    f"within {timeout_s:.0f}s"
                )
            time.sleep(0.05)

    # ------------------------------------------------------------------ #
    # introspection (called from any thread)
    # ------------------------------------------------------------------ #
    @property
    def worker_count(self) -> int:
        with self._lock:
            return len(self._workers)

    def fleet_summary(self) -> dict:
        """Live fleet snapshot (embedded in ``/v1/healthz``)."""
        with self._lock:
            workers = sorted(self._workers.values(), key=lambda w: w.order)
        details = [
            {
                "id": w.worker_id,
                "name": w.name,
                "pid": w.pid,
                "outstanding": len(w.outstanding),
                "fits_done": w.fits_done,
            }
            for w in workers
        ]
        return {
            "workers": len(details),
            "outstanding": sum(d["outstanding"] for d in details),
            "details": details,
        }

    # ------------------------------------------------------------------ #
    # coordinator loop: connections, dispatch, failover
    # ------------------------------------------------------------------ #
    def _count(self, outcome: str) -> None:
        if self._obs is not None:
            self._obs.record_fleet_dispatch(outcome)

    async def _serve(self, reader, writer) -> None:
        loop = asyncio.get_running_loop()
        try:
            hello = await asyncio.wait_for(wire.read_frame(reader), _HELLO_TIMEOUT_S)
        except Exception:
            writer.close()
            return
        if (
            not isinstance(hello, wire.Hello)
            or hello.wire_version != wire.WIRE_VERSION
        ):
            writer.close()
            return
        if self._secret is not None:
            # Mutual HMAC handshake: prove we know the secret over the
            # worker's nonce, demand proof over ours. A client that
            # cannot answer is dropped before it holds a worker id or
            # can address any fit.
            challenge_nonce = wire.new_nonce()
            try:
                await wire.write_frame(
                    writer,
                    wire.Challenge(
                        nonce=challenge_nonce,
                        proof=wire.coordinator_proof(self._secret, hello.nonce),
                    ),
                )
                answer = await asyncio.wait_for(
                    wire.read_frame(reader), _HELLO_TIMEOUT_S
                )
            except Exception:
                writer.close()
                return
            if not isinstance(answer, wire.Auth) or not hmac.compare_digest(
                answer.proof, wire.worker_proof(self._secret, challenge_nonce)
            ):
                writer.close()
                return
        order = next(self._worker_seq)
        worker = _Worker(
            worker_id=f"w{order}:{hello.worker_name}",
            name=hello.worker_name,
            pid=hello.pid,
            writer=writer,
            order=order,
            now=loop.time(),
        )
        try:
            await wire.write_frame(
                writer,
                wire.Register(worker.worker_id, self.heartbeat_interval_s),
            )
        except (ConnectionError, OSError):
            writer.close()
            return
        with self._lock:
            self._workers[worker.worker_id] = worker
        try:
            while True:
                frame = await wire.read_frame(reader)
                worker.last_seen = loop.time()
                if isinstance(frame, wire.Heartbeat):
                    # max(): the worker's count is authoritative but a
                    # beat can race the _resolve bump for a fit it has
                    # not counted yet; never step the summary backwards
                    worker.fits_done = max(worker.fits_done, frame.fits_done)
                elif isinstance(frame, (wire.FitResult, wire.FitError)):
                    self._resolve(worker, frame)
                # anything else from a registered worker is ignored
        except (
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
            ConnectionError,
            OSError,
            WireError,
        ):
            # CancelledError: asyncio.run tears reader tasks down at
            # shutdown — the finally below already records the loss.
            pass
        finally:
            self._lose_worker(worker, "disconnected")

    def _resolve(self, worker: _Worker, frame) -> None:
        if frame.fit_id not in worker.outstanding:
            # Only the worker a fit was dispatched to may resolve it —
            # a result/error from any other worker (or a late frame for
            # a timed-out/retried fit) must not touch self._pending.
            return
        worker.outstanding.pop(frame.fit_id)
        pending = self._pending.pop(frame.fit_id, None)
        if pending is None or pending.future.done():
            return  # orphan: the fit timed out or was retried elsewhere
        if isinstance(frame, wire.FitResult):
            # heartbeats carry the worker's authoritative count; bump
            # here so summaries between beats stay fresh
            worker.fits_done += 1
            pending.future.set_result((frame.meta, frame.arrays, frame.spans))
        else:
            pending.future.set_exception(_revive_error(frame))

    def _lose_worker(self, worker: _Worker, reason: str) -> None:
        if not worker.alive:
            return
        worker.alive = False
        with self._lock:
            self._workers.pop(worker.worker_id, None)
        worker.writer.close()
        outstanding = list(worker.outstanding.values())
        worker.outstanding.clear()
        for pending in outstanding:
            self._pending.pop(pending.fit_id, None)
            if not pending.future.done():
                pending.future.set_exception(
                    _WorkerLost(f"{worker.worker_id} {reason}")
                )

    async def _reap(self) -> None:
        while True:
            await asyncio.sleep(self.heartbeat_interval_s)
            cutoff = (
                asyncio.get_running_loop().time()
                - self.heartbeat_interval_s * self.heartbeat_misses
            )
            with self._lock:
                stale = [w for w in self._workers.values() if w.last_seen < cutoff]
            for worker in stale:
                self._lose_worker(
                    worker,
                    f"missed {self.heartbeat_misses} heartbeats",
                )

    def _pick_worker(self) -> _Worker | None:
        with self._lock:
            live = list(self._workers.values())
        if not live:
            return None
        return min(live, key=lambda w: (len(w.outstanding), w.order))

    async def _run_fit(self, strategy_blob, zoo_blob, target, timeout_s):
        loop = asyncio.get_running_loop()
        deadline = None if timeout_s is None else loop.time() + timeout_s
        attempts, lost_on = 0, "<none>"
        while True:
            worker = self._pick_worker()
            if worker is None:
                if attempts:
                    self._count("crash")
                    raise FitWorkerCrashError(
                        f"fit worker {lost_on} died while fitting target "
                        f"{target!r} and no live worker remains to retry on"
                    )
                self._count("no_workers")
                raise NoWorkersError(
                    f"no live fit workers registered for target {target!r} "
                    f"— start one with `repro fit-worker --connect "
                    f"{self._host}:{self.address[1] if self.address else '?'}`"
                )
            attempts += 1
            if attempts > 1:
                self._count("retry")
            fit_id = f"f{next(self._fit_seq)}"
            pending = _Pending(fit_id, target, loop.create_future())
            self._pending[fit_id] = pending
            worker.outstanding[fit_id] = pending
            try:
                async with worker.write_lock:
                    await wire.write_frame(
                        worker.writer,
                        wire.Fit(fit_id, target, strategy_blob, zoo_blob),
                    )
            except (ConnectionError, OSError, WireError):
                self._pending.pop(fit_id, None)
                worker.outstanding.pop(fit_id, None)
                self._lose_worker(worker, "write failed")
                lost_on = worker.worker_id
                continue
            remaining = None if deadline is None else max(0.0, deadline - loop.time())
            try:
                result = await asyncio.wait_for(pending.future, remaining)
            except asyncio.TimeoutError:
                # Late results for this fit_id are discarded in _resolve;
                # the worker finishes the fit as an orphan.
                self._pending.pop(fit_id, None)
                worker.outstanding.pop(fit_id, None)
                self._count("timeout")
                raise FitTimeoutError(
                    f"fit for target {target!r} exceeded {timeout_s:.1f}s "
                    f"in the fleet"
                ) from None
            except _WorkerLost as lost:
                lost_on = worker.worker_id
                if attempts < 2:
                    continue  # retry once on another live worker
                self._count("crash")
                raise FitWorkerCrashError(
                    f"fit worker died while fitting target {target!r} "
                    f"({lost}; retry exhausted)"
                ) from None
            except BaseException:
                self._count("fit_error")
                raise
            self._count("ok")
            return result


def _revive_error(frame) -> BaseException:
    """The exception a FIT_ERROR frame sheds its coalesced group with.

    The frame names the exception as ``(exc_module, exc_type, message)``
    strings — the coordinator never unpickles worker-supplied bytes, so
    a worker cannot make the gateway execute code.  Types importable
    from ``builtins`` or this package's own ``repro.*`` modules re-raise
    with their original type (matching the thread path); anything else
    — third-party or test-local exception classes, or constructors that
    reject a lone message argument — degrades to RuntimeError carrying
    the worker's message, and worker-side plane failures (zoo hydration,
    unencodable payloads) stay typed :class:`FitPlaneError`.
    """
    module, type_name = frame.exc_module, frame.exc_type
    if type_name and (module == "builtins" or module.startswith("repro.")):
        try:
            candidate = getattr(importlib.import_module(module), type_name, None)
        except ImportError:
            candidate = None
        if (
            isinstance(candidate, type)
            and issubclass(candidate, BaseException)
            and not issubclass(candidate, (SystemExit, KeyboardInterrupt))
        ):
            try:
                return candidate(frame.message)
            except Exception:
                pass  # constructor wants more than a message
    if frame.kind == "plane":
        return FitPlaneError(frame.message)
    prefix = f"{type_name}: " if type_name else ""
    return RuntimeError(f"{prefix}{frame.message}")
