"""The fit fleet: cold fits in other processes, over the artifact boundary.

Cold fits hold the GIL, so a router given a fleet runs them elsewhere:
on ``repro fit-worker`` processes that return the *strategy-packed*
artifact — rankings stay instant at the edge while heavy TransferGraph
fitting happens in other processes, on this box or on N machines.

- :mod:`repro.fleet.errors` — the typed :class:`FitPlaneError` family
  every remote fit sheds with;
- :mod:`repro.fleet.work` — the worker-side fit task (hydrate → fit →
  warm → pack) every fit worker runs, which is what keeps thread- and
  worker-fitted artifacts byte-identical;
- :mod:`repro.fleet.wire` — the length-prefixed, versioned, byte-stable
  frame protocol (HELLO/CHALLENGE/AUTH/REGISTER/HEARTBEAT/FIT/
  FIT_RESULT/FIT_ERROR) and the mutual HMAC fleet-secret handshake;
- :mod:`repro.fleet.coordinator` — :class:`FleetCoordinator`, the
  gateway-side registry/heartbeat/dispatch loop with least-outstanding
  worker selection and retry-once failover; a router or gateway given
  one sends every cold fit to it;
- :mod:`repro.fleet.worker` — :class:`FitWorker`, the
  ``repro fit-worker`` daemon.

Layering: ``serving`` imports ``fleet`` (the router's remote fit
path), never the reverse — enforced by the ``import-layering`` rule in
``repro analyze``.
"""

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.errors import (
    FitPlaneError,
    FitTimeoutError,
    FitWorkerCrashError,
    NoWorkersError,
    WireError,
)
from repro.fleet.work import run_fit, zoo_ref_for
from repro.fleet.worker import FitWorker

__all__ = [
    "FleetCoordinator",
    "FitWorker",
    "FitPlaneError",
    "FitTimeoutError",
    "FitWorkerCrashError",
    "NoWorkersError",
    "WireError",
    "run_fit",
    "zoo_ref_for",
]
