"""TransferGraph reproduction — model selection with a model zoo via graph learning.

This package reproduces "Model Selection with Model Zoo via Graph Learning"
(Li et al., ICDE 2024) end to end:

- :mod:`repro.nn` — numpy autograd substrate (the paper used PyTorch);
- :mod:`repro.zoo` — a simulated but genuinely-trained model zoo;
- :mod:`repro.store` — the zoo's metadata catalog;
- :mod:`repro.transferability` — LogME / LEEP / NCE / PARC / TransRate / H-score;
- :mod:`repro.probe` — dataset representations and similarity;
- :mod:`repro.graph` — graph construction and Node2Vec(+)/GraphSAGE/GAT;
- :mod:`repro.predictors` — LR / RandomForest / XGBoost-style regressors;
- :mod:`repro.core` — the TransferGraph config, fitted state and
  leave-one-out evaluation;
- :mod:`repro.strategies` — the unified SelectionStrategy API: every
  ranker (TransferGraph, Amazon LR, LogME, ..., random) behind one
  fit/rank/pack interface, addressable by spec string
  (``get_strategy("tg:lr,n2v,all" | "lr:all+logme" | "logme" | ...)``);
- :mod:`repro.serving` — artifact registry, warm-start service, async
  router, v1 wire protocol, namespace gateway, HTTP front door.

Quickstart::

    from repro.core import evaluate_strategy
    from repro.strategies import get_strategy
    from repro.zoo import ZooConfig, get_or_build_zoo

    zoo = get_or_build_zoo(ZooConfig.small(modality="image", seed=0))
    tg = get_strategy("tg:lr,n2v,all")
    result = evaluate_strategy(tg, zoo, targets=["stanfordcars"])
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
