"""No-history strategies: transferability estimators and random selection.

These rankers have no Stage-2/3 learning phase — the fast path the
strategy API promises them:

- :class:`TransferabilityStrategy` scores every zoo model on the target
  with a forward pass + estimator (LogME, LEEP, NCE, PARC, TransRate,
  H-score), reading catalog-cached scores when present and recording
  fresh ones for reuse as graph edges;
- :class:`RandomStrategy` draws i.i.d. uniform scores, deterministic per
  (seed, target) — Fig. 2's naive floor.

Both fit into a :class:`~repro.strategies.base.FittedScoreTable`, whose
artifact form is a tiny meta + one score vector; loads validate the
strategy fingerprint and the catalog fingerprint exactly like TG
artifacts do.
"""

from __future__ import annotations

import numpy as np

from repro.obs import span
from repro.strategies.base import (
    SCORE_TABLE_KIND,
    FittedScoreTable,
    SelectionStrategy,
)
from repro.utils.rng import derive_seed

__all__ = ["ScoreTableStrategy", "TransferabilityStrategy", "RandomStrategy",
           "SCORE_TABLE_FORMAT_VERSION"]

#: bump when the score-table artifact layout changes
SCORE_TABLE_FORMAT_VERSION = 1


class ScoreTableStrategy(SelectionStrategy):
    """Shared artifact plumbing for strategies that fit a score table."""

    requires_history = False

    def _fingerprint_payload(self) -> dict:
        raise NotImplementedError

    def fingerprint(self) -> str:
        from repro.strategies.fingerprint import stable_digest

        return stable_digest(self._fingerprint_payload())

    # ------------------------------------------------------------------ #
    def pack(self, fitted: FittedScoreTable, zoo
             ) -> tuple[dict, dict[str, np.ndarray]]:
        from repro.strategies.fingerprint import catalog_fingerprint

        model_ids = sorted(fitted.scores)
        meta = {
            "format_version": SCORE_TABLE_FORMAT_VERSION,
            "kind": SCORE_TABLE_KIND,
            "target": fitted.target,
            "strategy_spec": self.spec,
            "strategy_fingerprint": self.fingerprint(),
            "catalog_fingerprint": catalog_fingerprint(zoo.catalog),
            "model_ids": model_ids,
        }
        arrays = {"scores": np.asarray([fitted.scores[m] for m in model_ids],
                                       dtype=np.float64)}
        return meta, arrays

    def unpack(self, meta: dict, arrays: dict, zoo) -> FittedScoreTable:
        from repro.strategies.artifacts import StaleArtifactError
        from repro.strategies.fingerprint import catalog_fingerprint

        version = meta.get("format_version")
        if version != SCORE_TABLE_FORMAT_VERSION or \
                meta.get("kind") != SCORE_TABLE_KIND:
            raise StaleArtifactError(
                f"score-table artifact format v{version} "
                f"(kind {meta.get('kind')!r}) is not supported")
        if meta["strategy_fingerprint"] != self.fingerprint():
            raise StaleArtifactError(
                f"artifact for target {meta['target']!r} was fitted by a "
                f"different strategy ({meta.get('strategy_spec')!r})")
        live = catalog_fingerprint(zoo.catalog)
        if meta["catalog_fingerprint"] != live:
            raise StaleArtifactError(
                f"artifact for target {meta['target']!r} is stale: catalog "
                f"fingerprint {meta['catalog_fingerprint']} != live {live}")
        scores = dict(zip(meta["model_ids"],
                          np.asarray(arrays["scores"], dtype=np.float64)))
        return FittedScoreTable(target=meta["target"],
                                scores={m: float(s)
                                        for m, s in scores.items()})


class TransferabilityStrategy(ScoreTableStrategy):
    """Rank directly by a transferability estimator — no history used.

    Catalog-cached scores are read under the catalog lock; missing ones
    are computed lock-free (the forward passes dominate, and concurrent
    fits for other targets should overlap them) and merged back under
    the lock — the same scoped-recorder discipline as
    :meth:`repro.core.FeatureAssembler._raw_transferability_scores`.
    """

    def __init__(self, metric: str = "logme", record: bool = True):
        from repro.transferability import get_estimator

        get_estimator(metric)  # fail fast on unknown metric
        self.metric = metric
        self.record = record
        self.spec = metric
        self.name = {"logme": "LogME", "leep": "LEEP", "nce": "NCE",
                     "parc": "PARC", "transrate": "TransRate",
                     "hscore": "H-score"}.get(metric, metric.upper())

    def _fingerprint_payload(self) -> dict:
        return {"kind": "transferability", "metric": self.metric}

    def fit(self, zoo, target: str) -> FittedScoreTable:
        from repro.transferability import score_model_on_dataset

        catalog = zoo.catalog
        model_ids = zoo.model_ids()
        with span("fit.catalog_lookup"), catalog.lock:
            scores = {m: catalog.get_transferability(m, target,
                                                     metric=self.metric)
                      for m in model_ids}
        missing = [m for m, s in scores.items() if s is None]
        if missing:
            with span("fit.estimate"):
                batch = {m: score_model_on_dataset(zoo, m, target,
                                                   self.metric)
                         for m in missing}
            if self.record:
                with catalog.lock:
                    for model_id, score in batch.items():
                        catalog.record_transferability(
                            model_id, target, self.metric, score)
            scores.update(batch)
        return FittedScoreTable(target=target,
                                scores={m: float(s)
                                        for m, s in scores.items()})


class RandomStrategy(ScoreTableStrategy):
    """I.i.d. uniform scores; deterministic per (seed, target)."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.spec = "random" if seed == 0 else f"random:{seed}"
        self.name = "Random"

    def _fingerprint_payload(self) -> dict:
        return {"kind": "random", "seed": self.seed}

    def fit(self, zoo, target: str) -> FittedScoreTable:
        rng = np.random.default_rng(derive_seed(self.seed, "random", target))
        model_ids = zoo.model_ids()
        values = rng.random(len(model_ids))
        return FittedScoreTable(target=target,
                                scores=dict(zip(model_ids, values.tolist())))
