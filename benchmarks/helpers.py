"""Strategy roster shared by the benchmark files."""

from __future__ import annotations

from repro.baselines import AmazonLR
from repro.core import FeatureSet, TransferGraph, TransferGraphConfig
from repro.strategies import TransferabilityStrategy

#: embedding dimensionality used throughout the benchmarks (the paper uses
#: 128 on a zoo ~8x larger; 32 matches our training-set size — DESIGN.md §2)
BENCH_EMBEDDING_DIM = 32


def tg_strategy(predictor: str = "lr", graph_learner: str = "node2vec",
                features: FeatureSet | None = None, seed: int = 0,
                **config_overrides) -> TransferGraph:
    config = TransferGraphConfig(
        predictor=predictor,
        graph_learner=graph_learner,
        embedding_dim=BENCH_EMBEDDING_DIM,
        features=features or FeatureSet.everything(),
        seed=seed,
        **config_overrides,
    )
    return TransferGraph(config)


def main_roster() -> list:
    """The Fig. 7 strategy roster."""
    return [
        TransferabilityStrategy("logme"),
        AmazonLR("basic"),
        AmazonLR("all+logme"),
        tg_strategy(predictor="rf"),
        tg_strategy(predictor="xgb"),
        tg_strategy(predictor="lr"),
    ]


def format_row(name: str, value: float, width: int = 22) -> str:
    return f"  {name:<{width}s} {value:+.3f}"
