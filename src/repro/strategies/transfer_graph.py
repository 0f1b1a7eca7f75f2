"""TransferGraph-family strategies: the paper's TG variants and Amazon LR.

One class runs Fig. 5's pipeline for one leave-one-out target:

- **Stage 1** (metadata & features) is already materialised in the zoo
  catalog (similarities, transferability scores, history);
- **Stage 2** builds the LOO graph (target's M-D edges removed) and runs
  the configured graph learner to get node embeddings;
- **Stage 3** assembles the tabular training set from all *other*
  datasets' fine-tuning history and fits the prediction model;
- **Stage 4** is the returned :class:`~repro.core.FittedTransferGraph`:
  it scores every (model, target) pair and ranks the models.

Amazon LR is exactly TG's Stage 3 with graph features switched off,
which is how the paper positions it, so :class:`TransferGraphStrategy`
covers ``tg:*`` and ``lr:*`` specs, parameterised by the
:class:`~repro.core.TransferGraphConfig`.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FeatureSet, TransferGraphConfig
from repro.core.features import FeatureAssembler
from repro.core.framework import FittedTransferGraph
from repro.graph import GraphBuilder, get_graph_learner
from repro.obs import span
from repro.predictors import get_predictor
from repro.strategies.base import SelectionStrategy
from repro.utils.rng import derive_seed

__all__ = ["TransferGraphStrategy", "spec_for_config",
           "LEARNER_ALIASES", "LR_VARIANTS"]

#: spec token -> graph-learner registry name (and identity mappings)
LEARNER_ALIASES = {
    "n2v": "node2vec",
    "n2v+": "node2vec+",
    "sage": "graphsage",
    "node2vec": "node2vec",
    "node2vec+": "node2vec+",
    "graphsage": "graphsage",
    "gat": "gat",
}

#: graph-learner registry name -> canonical spec token
_LEARNER_TOKENS = {"node2vec": "n2v", "node2vec+": "n2v+",
                   "graphsage": "sage", "gat": "gat"}

#: lr variant -> (FeatureSet constructor, paper name)
LR_VARIANTS = {
    "basic": (FeatureSet.basic, "LR"),
    "all": (FeatureSet.all_no_graph, "LR{all}"),
    "all+logme": (FeatureSet.all_logme, "LR{all,LogME}"),
}


def spec_for_config(config: TransferGraphConfig) -> str:
    """Canonical strategy spec of a TG configuration.

    Graph-less configs under the ``lr`` predictor map to the baseline
    family (``lr:basic`` / ``lr:all`` / ``lr:all+logme``); everything
    else is a ``tg:`` spec mirroring the paper notation.
    """
    if not config.features.graph_features and config.predictor == "lr":
        for variant, (feature_set, _) in LR_VARIANTS.items():
            if config.features == feature_set():
                return f"lr:{variant}"
    learner = _LEARNER_TOKENS.get(config.graph_learner, config.graph_learner)
    suffix = "all" if (config.features.metadata
                       or config.features.dataset_similarity) else "graph"
    return f"tg:{config.predictor},{learner},{suffix}"


class TransferGraphStrategy(SelectionStrategy):
    """A TG variant (or LR baseline) behind the strategy protocol."""

    def __init__(self, config: TransferGraphConfig | None = None):
        self.config = config or TransferGraphConfig()
        self.spec = spec_for_config(self.config)
        family, _, variant = self.spec.partition(":")
        self.name = LR_VARIANTS[variant][1] if family == "lr" \
            else self.config.strategy_name()

    # ------------------------------------------------------------------ #
    def _training_pairs(self, zoo, target: str) -> tuple[list[tuple[str, str]],
                                                         np.ndarray]:
        """All (model, dataset≠target) pairs with known history labels."""
        method = self.config.label_method
        pairs: list[tuple[str, str]] = []
        labels: list[float] = []
        for dataset_id in zoo.target_names():
            if dataset_id == target:
                continue
            for row in zoo.catalog.history_for_dataset(dataset_id, method=method):
                pairs.append((row["model_id"], dataset_id))
                labels.append(row["accuracy"])
        if not pairs:
            raise ValueError(
                f"no training history available outside target {target!r}")
        return pairs, np.asarray(labels)

    def _learner(self, target: str):
        config = self.config
        return get_graph_learner(
            config.graph_learner, dim=config.embedding_dim,
            seed=derive_seed(config.seed, "graph_learner", target))

    def _train(self, zoo, target: str, graph, embeddings: dict[str, np.ndarray],
               stage: str) -> FittedTransferGraph:
        """Stage 3 after a fit's or a refresh's Stage 2.

        ``stage`` (``"fit"`` or ``"refresh"``) prefixes the span names:
        ``repro_fit_stage_ms`` and perfbench's traces read them.
        """
        config = self.config
        graph_features = config.features.graph_features
        assembler = FeatureAssembler(
            zoo=zoo,
            features=config.features,
            embeddings=embeddings if graph_features else None,
            transferability_metric=config.graph.transferability_metric,
            similarity_method=config.graph.similarity_method,
            graph=graph if graph_features else None,
        )
        with span(f"{stage}.features"):
            pairs, labels = self._training_pairs(zoo, target)
            x_train, names = assembler.assemble(pairs, fit=True)

        predictor = get_predictor(config.predictor)
        with span(f"{stage}.train"):
            predictor.fit(x_train, labels)

        return FittedTransferGraph(
            target=target,
            assembler=assembler,
            predictor=predictor,
            embeddings=embeddings,
            graph_stats=graph.stats(),
            feature_names=names,
        )

    def fit(self, zoo, target: str) -> FittedTransferGraph:
        """Run Stages 2–3 for one leave-one-out target."""
        builder = GraphBuilder(zoo, self.config.graph)
        with span("fit.graph_build"):
            graph, links = builder.build(exclude_target=target)
        embeddings: dict[str, np.ndarray] = {}
        if self.config.features.graph_features:
            learner = self._learner(target)
            with span("fit.embed"):
                embeddings = learner.embed(graph, links)
        return self._train(zoo, target, graph, embeddings, "fit")

    def refresh(self, zoo, target: str, fitted: FittedTransferGraph,
                dirty_nodes: set[str]) -> FittedTransferGraph:
        """Incrementally update a fitted pipeline after catalog writes.

        Stage 2 is localized: instead of re-walking the whole graph, the
        learner re-walks only ``dirty_nodes`` (the graph nodes incident
        to the changed catalog rows) and their one-hop neighbors, warm-
        starting SGNS from ``fitted.embeddings`` — see
        :meth:`repro.graph.Node2Vec.refresh`.  Stage 3 (feature assembly
        + predictor) always retrains: its cost is linear in the history
        table, not the graph, and the changed labels must reach the
        predictor.  Learners without a ``refresh`` (the GNNs) and
        graph-less configs fall back to a clean :meth:`fit`.
        """
        if not self.config.features.graph_features or not fitted.embeddings:
            return self.fit(zoo, target)
        learner = self._learner(target)
        if not hasattr(learner, "refresh"):
            return self.fit(zoo, target)
        builder = GraphBuilder(zoo, self.config.graph)
        with span("refresh.graph_build"):
            graph, links = builder.build(exclude_target=target)
        with span("refresh.embed"):
            embeddings = learner.refresh(graph, fitted.embeddings,
                                         dirty_nodes, links)
        return self._train(zoo, target, graph, embeddings, "refresh")

    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        from repro.strategies.fingerprint import config_fingerprint

        return config_fingerprint(self.config)

    def pack(self, fitted, zoo) -> tuple[dict, dict[str, np.ndarray]]:
        from repro.strategies.artifacts import pack_fitted

        return pack_fitted(fitted, self.config, zoo)

    def unpack(self, meta: dict, arrays: dict, zoo):
        from repro.strategies.artifacts import unpack_fitted

        return unpack_fitted(meta, arrays, zoo, self.config)
