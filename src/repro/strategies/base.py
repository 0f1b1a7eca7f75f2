"""The SelectionStrategy protocol: one interface for every ranker.

The paper's evaluation is comparative — TransferGraph variants against
the Amazon-LR baseline and transferability-only selectors — so the repo
needs every ranker behind one abstraction that the whole serving stack
(registry → service → router → gateway → HTTP) can drive:

- ``fit(zoo, target) -> FittedSelection`` — produce a servable, warm
  pipeline for one target (strategies without a Stage-2/3 learning
  phase, e.g. LogME, fit in one forward-pass sweep);
- ``rank(zoo, target)`` / ``scores_for_target(zoo, target)`` — the
  evaluation-harness face, shared with ``repro.core.evaluate_strategy``;
- ``fingerprint()`` — a content hash keying registry artifacts, so two
  strategies can never serve each other's state;
- ``pack(fitted, zoo)`` / ``unpack(meta, arrays, zoo)`` — the portable
  artifact form the :class:`~repro.serving.ArtifactRegistry` persists.
  The same pair is the *process boundary*: a remote fit
  (:mod:`repro.fleet`) fits in a worker process, packs there, and
  unpacks in the serving process — so anything a fitted pipeline
  needs at predict time must live in the packed state (or be
  deterministically derivable from the catalog), and strategy
  instances themselves must be picklable (module-level classes with
  plain attributes — no closures);
- ``spec`` — the canonical string key under which the strategy registry
  (:func:`repro.strategies.get_strategy`) and the serving gateway's
  per-namespace strategy maps address it;
- ``name`` — the human-readable paper notation (``TG:LR,N2V,all``,
  ``LR{all,LogME}``, ``LogME``, ``Random``).

:class:`FittedSelection` is duck-typed: anything with ``target``,
``predict(model_ids) -> np.ndarray`` and ``rank(model_ids)`` serves
(:class:`~repro.core.FittedTransferGraph` already conforms;
:class:`FittedScoreTable` covers the no-history strategies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol

import numpy as np
import numpy.typing as npt

from repro.core.framework import sort_ranking

__all__ = ["SelectionStrategy", "FittedSelection", "FittedScoreTable",
           "sort_ranking", "SCORE_TABLE_KIND"]

#: meta["kind"] discriminant of score-table artifacts (TG artifacts
#: predate the field and carry no kind)
SCORE_TABLE_KIND = "score_table"


class FittedSelection(Protocol):
    """Structural interface of a fitted, servable selection pipeline.

    Anything with these three members serves — the class exists for type
    checkers and documentation, not for inheritance
    (:class:`~repro.core.FittedTransferGraph` conforms without importing
    this module).
    """

    target: str

    def predict(self, model_ids: list[str]) -> npt.NDArray[np.float64]: ...

    def rank(self, model_ids: list[str]) -> list[tuple[str, float]]: ...


class SelectionStrategy:
    """Base class of every model-selection strategy.

    Subclasses set :attr:`spec` and :attr:`name` and implement
    :meth:`fit`, :meth:`fingerprint`, :meth:`pack`, :meth:`unpack`.
    """

    #: canonical registry key, e.g. ``"tg:lr,n2v,all"`` or ``"logme"``
    spec: str
    #: paper notation, e.g. ``"TG:LR,N2V,all"``
    name: str
    #: whether Stage-2/3 fitting consumes fine-tuning history (False for
    #: transferability-only and random strategies — the no-history fast
    #: path: their fit is a catalog sweep, not a learning phase)
    requires_history: bool = True

    # ------------------------------------------------------------------ #
    def fit(self, zoo: Any, target: str) -> FittedSelection:
        """Produce a :class:`FittedSelection` for one target."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Content hash keying this strategy's registry artifacts."""
        raise NotImplementedError

    def pack(
        self, fitted: FittedSelection, zoo: Any
    ) -> tuple[dict[str, Any], dict[str, npt.NDArray[Any]]]:
        """Serialise a fitted pipeline into ``(meta, arrays)``."""
        raise NotImplementedError

    def unpack(
        self, meta: dict[str, Any], arrays: dict[str, npt.NDArray[Any]], zoo: Any
    ) -> FittedSelection:
        """Revive a fitted pipeline, validating freshness first."""
        raise NotImplementedError

    def refresh(self, zoo: Any, target: str, fitted: FittedSelection,
                dirty_nodes: set[str]) -> FittedSelection:
        """Update ``fitted`` after catalog writes touching ``dirty_nodes``.

        The default is the honest fallback — a clean :meth:`fit` —
        which is already cheap for the no-history strategies (their fit
        is a catalog sweep).  Strategies with an expensive Stage-2
        learning phase override this with an O(changed-nodes) refresh
        (:class:`~repro.strategies.TransferGraphStrategy` re-walks only
        the dirty neighborhood and warm-starts SGNS).
        """
        return self.fit(zoo, target)

    # ------------------------------------------------------------------ #
    # shared faces (evaluation harness + convenience)
    # ------------------------------------------------------------------ #
    def rank(self, zoo: Any, target: str) -> list[tuple[str, float]]:
        """Models ranked best-first for ``target`` (fits, then ranks)."""
        return self.fit(zoo, target).rank(zoo.model_ids())

    def scores_for_target(self, zoo: Any, target: str) -> dict[str, float]:
        """Every model's score on ``target``: what the LOO harness reads."""
        fitted = self.fit(zoo, target)
        model_ids = zoo.model_ids()
        scores = fitted.predict(model_ids)
        return {m: float(s) for m, s in zip(model_ids, scores)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(spec={self.spec!r})"


@dataclass
class FittedScoreTable:
    """A fitted no-history selection: one precomputed score per model.

    The :class:`FittedSelection` form of transferability-only and random
    strategies — ``fit`` materialises the whole score column for the
    target, so serving is pure table lookups.
    """

    target: str
    scores: dict[str, float] = field(repr=False)

    def predict(self, model_ids: list[str]) -> npt.NDArray[np.float64]:
        return np.asarray([self.scores[m] for m in model_ids],
                          dtype=np.float64)

    def rank(self, model_ids: list[str]) -> list[tuple[str, float]]:
        return sort_ranking({m: self.scores[m] for m in model_ids})
