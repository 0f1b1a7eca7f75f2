"""Configuration of the TransferGraph framework (§VI).

A strategy variant in the paper's notation, e.g. ``TG:LR,N2V,all``, maps
to: ``predictor="lr"``, ``graph_learner="node2vec"``, and the ``all``
feature set (metadata + dataset similarity + graph features).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph import GraphConfig

__all__ = ["FeatureSet", "TransferGraphConfig"]


@dataclass(frozen=True)
class FeatureSet:
    """Which feature groups feed the Stage-3 prediction model (§VII-C)."""

    metadata: bool = True          # model + dataset metadata (§IV-A)
    dataset_similarity: bool = True  # ϕ(source of model, target)  (§IV-B2)
    transferability: bool = False  # LogME score as a feature (LR{all,LogME})
    graph_features: bool = True    # node embeddings from the graph learner
    #: include the elementwise product of the model and dataset embeddings.
    #: A linear prediction model cannot express the bilinear affinity
    #: ⟨emb_m, emb_d⟩ from concatenated embeddings alone; the product block
    #: makes it a learnable weighted dot product (implementation detail on
    #: top of Fig. 5's "mi emb | dj emb" columns, see docs/fidelity.md).
    graph_interaction: bool = True
    #: include the raw embedding coordinate blocks themselves (the paper's
    #: "mi emb | dj emb" columns).  They let the predictor memorise
    #: per-model quality from history — the core of TG's advantage.
    graph_raw_embeddings: bool = True
    #: include a similarity-weighted two-hop affinity score computed
    #: directly on the graph: Σ_{d'} ϕ(target, d') · w_acc(model, d').
    #: A deterministic graph feature complementing the learned embeddings.
    graph_two_hop: bool = True

    @classmethod
    def basic(cls) -> "FeatureSet":
        """Amazon LR: metadata only."""
        return cls(metadata=True, dataset_similarity=False,
                   transferability=False, graph_features=False)

    @classmethod
    def all_no_graph(cls) -> "FeatureSet":
        """LR{all}: metadata + dataset similarity."""
        return cls(metadata=True, dataset_similarity=True,
                   transferability=False, graph_features=False)

    @classmethod
    def all_logme(cls) -> "FeatureSet":
        """LR{all,LogME}: metadata + similarity + LogME score."""
        return cls(metadata=True, dataset_similarity=True,
                   transferability=True, graph_features=False)

    @classmethod
    def graph_only(cls) -> "FeatureSet":
        """TG:…,N2V — graph features alone."""
        return cls(metadata=False, dataset_similarity=False,
                   transferability=False, graph_features=True)

    @classmethod
    def everything(cls) -> "FeatureSet":
        """TG:…,N2V,all — metadata + similarity + graph features."""
        return cls(metadata=True, dataset_similarity=True,
                   transferability=False, graph_features=True)

    def any_active(self) -> bool:
        return (self.metadata or self.dataset_similarity
                or self.transferability or self.graph_features)


@dataclass(frozen=True)
class TransferGraphConfig:
    """End-to-end configuration of a TG strategy variant."""

    graph: GraphConfig = field(default_factory=GraphConfig)
    graph_learner: str = "node2vec"
    #: the paper embeds at 128 on a zoo ~8x larger; 32 matches this
    #: zoo's training-set size.  At 128 the raw and product embedding
    #: blocks (384 columns) outnumber a small zoo's ~105 training rows
    #: and TG:LR ranks at random level (docs/fidelity.md).
    embedding_dim: int = 32
    predictor: str = "lr"
    features: FeatureSet = field(default_factory=FeatureSet.everything)
    label_method: str = "finetune"   # which history supplies labels
    seed: int = 0

    def strategy_name(self) -> str:
        """Human-readable name in the paper's notation, e.g. TG:LR,N2V,all."""
        learner_alias = {
            "node2vec": "N2V",
            "node2vec+": "N2V+",
            "graphsage": "GraphSAGE",
            "gat": "GAT",
        }.get(self.graph_learner, self.graph_learner)
        suffix = ""
        if self.features.metadata or self.features.dataset_similarity:
            suffix = ",all"
        return f"TG:{self.predictor.upper()},{learner_alias}{suffix}"
