"""The TransferGraph core: configuration, fitted state, and LOO evaluation."""

from repro.core.config import FeatureSet, TransferGraphConfig
from repro.core.features import FeatureAssembler
from repro.core.framework import FittedTransferGraph
from repro.core.evaluation import (
    LooEvaluation,
    TargetResult,
    evaluate_strategy,
    top_k_accuracy,
)

__all__ = [
    "FeatureSet",
    "TransferGraphConfig",
    "FeatureAssembler",
    "FittedTransferGraph",
    "LooEvaluation",
    "TargetResult",
    "evaluate_strategy",
    "top_k_accuracy",
]
