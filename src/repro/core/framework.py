"""The fitted state of the TransferGraph pipeline, and its one sort rule.

:class:`repro.strategies.TransferGraphStrategy` runs Fig. 5's Stages
2–3 for one leave-one-out target and returns a
:class:`FittedTransferGraph`, which carries Stage 4: it scores every
(model, target) pair and ranks the models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.features import FeatureAssembler

__all__ = ["FittedTransferGraph", "sort_ranking"]


def sort_ranking(scores: dict[str, float]) -> list[tuple[str, float]]:
    """Best-first ordering, ties broken by model id.

    The single sort rule every strategy and every fitted pipeline
    shares, so rankings cannot diverge across strategy families.
    """
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


@dataclass
class FittedTransferGraph:
    """The state :meth:`TransferGraphStrategy.fit` produces for one target."""

    target: str
    assembler: FeatureAssembler
    predictor: object
    embeddings: dict[str, np.ndarray]
    graph_stats: dict[str, float]
    feature_names: list[str] = field(repr=False, default_factory=list)

    def predict(self, model_ids: list[str]) -> np.ndarray:
        """Predicted fine-tuning scores of models on the fitted target."""
        pairs = [(m, self.target) for m in model_ids]
        x, _ = self.assembler.assemble(pairs, fit=False)
        return self.predictor.predict(x)

    def rank(self, model_ids: list[str]) -> list[tuple[str, float]]:
        """``model_ids`` sorted by predicted score, best first."""
        return sort_ranking(dict(zip(model_ids, self.predict(model_ids))))
