"""LocalFleet: ``fit_executor="process"`` as a loopback fit fleet.

A process-mode router owns one :class:`LocalFleet`: a
:class:`~repro.fleet.coordinator.FleetCoordinator` on ``127.0.0.1:0``
plus the :class:`~repro.fleet.worker.FitWorker` processes it spawns, so
its cold fits take the socket fleet's one remote path — the same FIT
frames, dispatch, retry-once failover and typed errors.

Workers start with the ``spawn`` method, because forking a
multi-threaded server can copy held locks into the child.  Each fleet
has a fresh random secret; it reaches the children through the spawn
pipe, never their command line or environment, so another local process
that finds the port fails the mutual HMAC handshake.  A worker whose
coordinator vanishes without a close (the server was SIGKILLed) exits on
the closed connection.
"""

from __future__ import annotations

import asyncio
import secrets
import signal
import threading
import time
from multiprocessing import get_context

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.errors import FitPlaneError
from repro.fleet.work import hydrate_zoo, zoo_ref_for
from repro.fleet.worker import FitWorker

__all__ = ["LocalFleet"]

#: bound on one spawned worker's interpreter start, imports and zoo
#: hydration, i.e. on how long a dispatch waits for it to register
_REGISTER_TIMEOUT_S = 120.0


def _serve_local(host: str, port: int, secret: str, zoo_ref) -> None:
    """Spawned worker entrypoint: hydrate the zoo, then serve fits."""
    # A terminal's Ctrl-C reaches the whole process group; the parent
    # stops its workers itself when it closes the fleet.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if zoo_ref is not None:
        hydrate_zoo(zoo_ref)
    asyncio.run(FitWorker(host, port, secret=secret).run())


class LocalFleet(FleetCoordinator):
    """A loopback coordinator that owns ``workers`` fit-worker processes.

    The coordinator and the workers start on the first :meth:`prestart`
    or :meth:`submit_fit`; both top the fleet back up to ``workers``
    registered processes first, so a dead worker is replaced before the
    next dispatch.  ``obs`` receives the coordinator's worker gauge and
    dispatch outcomes, as for a socket fleet.
    """

    def __init__(self, workers: int = 2, *, obs=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        super().__init__("127.0.0.1", 0, secret=secrets.token_hex(32), obs=obs)
        self.workers = workers
        self._spawn_lock = threading.Lock()
        self._procs: list = []  # guarded by: self._spawn_lock
        self._stopped = False  # guarded by: self._spawn_lock

    def prestart(self, zoo=None) -> int:
        """Start every worker now, hydrating ``zoo``; returns live workers."""
        self._ensure_workers(zoo)
        return self.worker_count

    def submit_fit(self, strategy, zoo, target: str, *, timeout_s=None):
        self._ensure_workers(zoo)
        return super().submit_fit(strategy, zoo, target, timeout_s=timeout_s)

    def close(self) -> None:
        """Terminate and join the workers, then stop the coordinator.

        Workers go first, so the coordinator never shuts down with a
        live connection still open.
        """
        with self._spawn_lock:
            self._stopped = True
            procs, self._procs = self._procs, []
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        super().close()

    def _ensure_workers(self, zoo) -> None:
        """Replace dead workers, then wait until every live one registered."""
        with self._spawn_lock:
            if self._stopped:
                raise FitPlaneError("local fit fleet is closed")
            if self.address is None:
                self.start()
            self._procs = [proc for proc in self._procs if proc.is_alive()]
            if len(self._procs) < self.workers:
                host, port = self.address
                zoo_ref = None if zoo is None else zoo_ref_for(zoo)
                context = get_context("spawn")
                for _ in range(self.workers - len(self._procs)):
                    proc = context.Process(
                        target=_serve_local,
                        args=(host, port, self._secret, zoo_ref),
                        name="repro-fit-worker",
                        daemon=True,
                    )
                    proc.start()
                    self._procs.append(proc)
            procs = list(self._procs)
        deadline = time.monotonic() + _REGISTER_TIMEOUT_S
        while True:
            with self._lock:
                registered = {worker.pid for worker in self._workers.values()}
            waiting = [proc for proc in procs if proc.pid not in registered]
            if not waiting:
                return
            for proc in waiting:
                if not proc.is_alive():
                    raise FitPlaneError(
                        f"fit worker process {proc.pid} exited with code "
                        f"{proc.exitcode} before it registered"
                    )
            if time.monotonic() >= deadline:
                raise FitPlaneError(
                    f"{len(waiting)} fit worker process(es) did not register "
                    f"within {_REGISTER_TIMEOUT_S:.0f}s"
                )
            time.sleep(0.02)
