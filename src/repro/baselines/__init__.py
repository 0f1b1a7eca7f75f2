"""Baseline model-selection strategies (§VII-A "Baselines").

- :class:`AmazonLR` — the learning-based SOTA baseline [10] in its three
  variants: ``LR`` (metadata), ``LR{all}`` (+dataset similarity),
  ``LR{all,LogME}`` (+LogME score feature).

The naive random strategy of Fig. 2 and the feature-based baseline
(``LogME``, or any other transferability estimator) are
:class:`~repro.strategies.RandomStrategy` and
:class:`~repro.strategies.TransferabilityStrategy`.  All three are
first-class :class:`~repro.strategies.SelectionStrategy` subclasses, so
beyond the evaluation-harness protocol
(``scores_for_target(zoo, target) -> {model_id: score}``) they fit,
pack/unpack, and serve through the whole registry → service → gateway →
HTTP stack like any other strategy
(``repro.strategies.get_strategy("lr:all+logme" | "logme" | "random")``).
"""

from repro.baselines.amazon_lr import AmazonLR

__all__ = ["AmazonLR"]
