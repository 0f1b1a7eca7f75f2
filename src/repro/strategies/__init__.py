"""Unified strategy layer: every ranker behind one fit/rank/pack API.

- :mod:`repro.strategies.base` — the :class:`SelectionStrategy` protocol
  and :class:`FittedScoreTable`;
- :mod:`repro.strategies.transfer_graph` — TG variants and the Amazon-LR
  baselines (Stage 3 with graph features off);
- :mod:`repro.strategies.score_based` — transferability-only rankers
  (no-history fast path) and random selection;
- :mod:`repro.strategies.registry` — the string-keyed registry:
  ``get_strategy("tg:lr,n2v,all" | "lr:all+logme" | "logme" | ...)``;
- :mod:`repro.strategies.fingerprint` /
  :mod:`repro.strategies.artifacts` — the content hashes and
  pack/unpack forms of the strategy artifact contract (consumed by the
  serving registry one layer up, and by remote fits as their wire
  format).
"""

from repro.strategies.base import (
    SCORE_TABLE_KIND,
    FittedScoreTable,
    SelectionStrategy,
    sort_ranking,
)
from repro.strategies.score_based import (
    SCORE_TABLE_FORMAT_VERSION,
    RandomStrategy,
    ScoreTableStrategy,
    TransferabilityStrategy,
)
from repro.strategies.transfer_graph import (
    TransferGraphStrategy,
    spec_for_config,
)
from repro.strategies.registry import (
    UnknownStrategyError,
    available_specs,
    canonical_spec,
    get_strategy,
    normalize_spec,
    resolve_strategy,
)

__all__ = [
    "SCORE_TABLE_KIND",
    "FittedScoreTable",
    "SelectionStrategy",
    "sort_ranking",
    "SCORE_TABLE_FORMAT_VERSION",
    "RandomStrategy",
    "ScoreTableStrategy",
    "TransferabilityStrategy",
    "TransferGraphStrategy",
    "spec_for_config",
    "UnknownStrategyError",
    "available_specs",
    "canonical_spec",
    "get_strategy",
    "normalize_spec",
    "resolve_strategy",
]
