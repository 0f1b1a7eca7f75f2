"""Typed fit-plane failures of the fit fleet.

The coordinator, the worker daemon and the router all shed a router's
coalesced group with *the same* typed errors, so the hierarchy lives at
the bottom of ``fleet``, below everything that raises or catches it.
``repro.serving`` re-exports the router-facing names, so
``from repro.serving import FitPlaneError`` works too.

The contract:

- :class:`FitPlaneError` and subclasses mean the *plane* failed — the
  infrastructure running the fit, not the fit itself.  Ordinary
  exceptions raised by ``strategy.fit`` always propagate with their
  original type.
- A plane error sheds the whole coalesced group for its target; the
  router stays serviceable for other targets.
- :data:`RETRYABLE_FIT_ERRORS` are the plane failures a retry can
  outlive (no worker yet, a slow or lost one).  The HTTP front door
  answers them 503 ``fit_unavailable`` and ``/v1/compare`` marks the
  strategy ``"shed"``, both with the fixed :data:`FIT_RETRY_AFTER_S`
  hint.  Every other plane error is a server failure.
"""

from __future__ import annotations

__all__ = [
    "FitPlaneError",
    "FitWorkerCrashError",
    "FitTimeoutError",
    "NoWorkersError",
    "WireError",
    "RETRYABLE_FIT_ERRORS",
    "FIT_RETRY_AFTER_S",
]


class FitPlaneError(RuntimeError):
    """Base class for fit-plane failures (not fit exceptions)."""


class FitWorkerCrashError(FitPlaneError):
    """A worker died mid-fit (disconnected or missed its heartbeats with
    the fit outstanding) and the retry on another worker did not
    succeed."""


class FitTimeoutError(FitPlaneError):
    """A fit exceeded the router's ``fit_timeout_s``; its coalesced
    group is shed."""


class NoWorkersError(FitPlaneError):
    """The fleet has no live registered worker to dispatch a fit to."""


class WireError(FitPlaneError):
    """A malformed or over-sized fleet wire frame; the connection that
    produced it is dropped (treated as a worker death)."""


#: fleet failures a retry can outlive (no worker yet, a slow or lost one)
RETRYABLE_FIT_ERRORS = (NoWorkersError, FitTimeoutError, FitWorkerCrashError)

#: seconds a client is told to wait after one of them
FIT_RETRY_AFTER_S = 1.0
