"""Typed fit-plane failures shared by every cold-fit executor.

These classes started life in :mod:`repro.serving.fit_plane` (the
process fit plane, PR 7) and moved down here when the socket fleet
arrived: the coordinator, the worker daemon, and the process pool all
shed a router's coalesced group with *the same* typed errors, so the
hierarchy has to live below both ``serving`` and ``fleet`` in the
import DAG.  ``repro.serving`` re-exports the executor-facing names, so
``from repro.serving import FitPlaneError`` works too.

The contract, regardless of executor:

- :class:`FitPlaneError` and subclasses mean the *plane* failed — the
  infrastructure running the fit, not the fit itself.  Ordinary
  exceptions raised by ``strategy.fit`` always propagate with their
  original type.
- A plane error sheds the whole coalesced group for its target; the
  router stays serviceable for other targets.
"""

from __future__ import annotations

__all__ = [
    "FitPlaneError",
    "FitWorkerCrashError",
    "FitTimeoutError",
    "NoWorkersError",
    "WireError",
]


class FitPlaneError(RuntimeError):
    """Base class for fit-plane failures (not fit exceptions)."""


class FitWorkerCrashError(FitPlaneError):
    """A worker died mid-fit (process pool broken, or a fleet worker
    disconnected / missed its heartbeats with the fit outstanding and
    no retry succeeded)."""


class FitTimeoutError(FitPlaneError):
    """A fit exceeded ``fit_timeout_s``; its coalesced group is shed."""


class NoWorkersError(FitPlaneError):
    """The fleet has no live registered worker to dispatch a fit to."""


class WireError(FitPlaneError):
    """A malformed or over-sized fleet wire frame; the connection that
    produced it is dropped (treated as a worker death)."""
