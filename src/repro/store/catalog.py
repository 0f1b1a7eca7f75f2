"""The zoo catalog: five standard tables plus typed convenience APIs.

Tables (mirroring the information the paper's Stage 1 collects):

- ``models``       — architecture family, #params, input shape, memory,
                     pre-train dataset and pre-train accuracy (§IV-A2);
- ``datasets``     — modality, #samples, #classes (§IV-A1, Table III);
- ``history``      — training history: fine-tune accuracy per
                     (model, dataset, method) (§IV, edge type iii);
- ``transferability`` — estimator scores per (model, dataset, metric)
                     (§IV, edge type ii, e.g. LogME);
- ``similarity``   — dataset-dataset similarity (§IV-B2, edge type i).

The catalog is the single source of truth consumed by the graph builder
(Stage 2) and the prediction-model feature assembly (Stage 3).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np

from repro.store.schema import Column, Schema
from repro.store.table import Table

__all__ = ["ZooCatalog"]

#: retained mutation-log length; updates further back than this force a
#: full refit instead of an incremental refresh (the honest fallback)
_DIRTY_LOG_LIMIT = 100_000

_MODEL_SCHEMA = Schema(
    name="models",
    columns=[
        Column("model_id", "str"),
        Column("architecture", "str"),
        Column("family", "str"),
        Column("modality", "str"),
        Column("pretrain_dataset", "str"),
        Column("pretrain_accuracy", "float"),
        Column("num_params", "int"),
        Column("memory_mb", "float"),
        Column("input_shape", "int"),
        Column("embedding_dim", "int"),
        Column("depth", "int"),
    ],
    primary_key=("model_id",),
)

_DATASET_SCHEMA = Schema(
    name="datasets",
    columns=[
        Column("dataset_id", "str"),
        Column("modality", "str"),
        Column("num_samples", "int"),
        Column("num_classes", "int"),
        Column("input_dim", "int"),
        Column("is_target", "bool", required=False, default=False),
    ],
    primary_key=("dataset_id",),
)

_HISTORY_SCHEMA = Schema(
    name="history",
    columns=[
        Column("model_id", "str"),
        Column("dataset_id", "str"),
        Column("method", "str"),  # "finetune" | "lora" | "pretrain"
        Column("accuracy", "float"),
        Column("epochs", "int", required=False, default=0),
    ],
    primary_key=("model_id", "dataset_id", "method"),
)

_TRANSFERABILITY_SCHEMA = Schema(
    name="transferability",
    columns=[
        Column("model_id", "str"),
        Column("dataset_id", "str"),
        Column("metric", "str"),  # "logme" | "leep" | ...
        Column("score", "float"),
    ],
    primary_key=("model_id", "dataset_id", "metric"),
)

_SIMILARITY_SCHEMA = Schema(
    name="similarity",
    columns=[
        Column("dataset_a", "str"),
        Column("dataset_b", "str"),
        Column("method", "str"),  # "domain_similarity" | "task2vec"
        Column("similarity", "float"),
    ],
    primary_key=("dataset_a", "dataset_b", "method"),
)


class ZooCatalog:
    """Typed facade over the five zoo tables.

    :attr:`lock` serialises *derived-score* recording (lazy similarity
    and transferability fills) so multiple threads may fit pipelines
    against one catalog concurrently: writers compute into a scoped
    batch and merge it under the lock (see
    :meth:`repro.graph.GraphBuilder.ensure_similarities` and
    :meth:`repro.core.features.FeatureAssembler`).  Reads of settled
    rows need no lock — after the one-time fills the catalog is
    effectively immutable between explicit invalidations.
    """

    def __init__(self):
        #: re-entrant: recording helpers nest inside locked fill sections
        self.lock = threading.RLock()
        self.models = Table(_MODEL_SCHEMA)
        self.datasets = Table(_DATASET_SCHEMA)
        self.history = (Table(_HISTORY_SCHEMA)
                        .add_index("dataset_id").add_index("model_id"))
        self.transferability = (Table(_TRANSFERABILITY_SCHEMA)
                                .add_index("dataset_id").add_index("metric"))
        self.similarity = Table(_SIMILARITY_SCHEMA).add_index("method")
        # Mutation log for incremental graph refresh: every write marks
        # the graph nodes its row is incident to.  guarded by: self.lock
        self._mutation_seq = 0
        self._dirty_log: list[tuple[int, str]] = []
        self._dirty_floor = 0  # seqs <= floor have been trimmed away

    # ------------------------------------------------------------------ #
    # mutation log (consumed by the incremental graph refresh)
    # ------------------------------------------------------------------ #
    def _mark_dirty(self, *nodes: str) -> None:
        with self.lock:
            self._mutation_seq += 1
            seq = self._mutation_seq
            self._dirty_log.extend((seq, node) for node in nodes)
            if len(self._dirty_log) > _DIRTY_LOG_LIMIT:
                trimmed = self._dirty_log[-_DIRTY_LOG_LIMIT:]
                self._dirty_floor = trimmed[0][0] - 1
                self._dirty_log = trimmed

    @property
    def mutation_seq(self) -> int:
        """Monotonic write counter; snapshot it when a pipeline is fit."""
        with self.lock:
            return self._mutation_seq

    def dirty_nodes(self, since: int) -> set[str] | None:
        """Graph nodes whose incident catalog rows changed after ``since``.

        Returns ``None`` when the log no longer reaches back that far —
        callers must then fall back to a full refit.
        """
        with self.lock:
            if since < self._dirty_floor:
                return None
            return {node for seq, node in self._dirty_log if seq > since}

    # ------------------------------------------------------------------ #
    # writers
    # ------------------------------------------------------------------ #
    def add_model(self, **fields) -> None:
        self.models.insert(fields, upsert=True)
        self._mark_dirty(fields["model_id"])

    def add_dataset(self, **fields) -> None:
        self.datasets.insert(fields, upsert=True)
        self._mark_dirty(fields["dataset_id"])

    def record_history(self, model_id: str, dataset_id: str, accuracy: float,
                       method: str = "finetune", epochs: int = 0) -> None:
        self.history.insert(
            {"model_id": model_id, "dataset_id": dataset_id, "method": method,
             "accuracy": float(accuracy), "epochs": epochs},
            upsert=True,
        )
        self._mark_dirty(model_id, dataset_id)

    def record_transferability(self, model_id: str, dataset_id: str,
                               metric: str, score: float) -> None:
        self.transferability.insert(
            {"model_id": model_id, "dataset_id": dataset_id,
             "metric": metric, "score": float(score)},
            upsert=True,
        )
        self._mark_dirty(model_id, dataset_id)

    def record_similarity(self, dataset_a: str, dataset_b: str,
                          similarity: float,
                          method: str = "domain_similarity") -> None:
        """Record a symmetric similarity (stored once, key-ordered)."""
        a, b = sorted((dataset_a, dataset_b))
        self.similarity.insert(
            {"dataset_a": a, "dataset_b": b, "method": method,
             "similarity": float(similarity)},
            upsert=True,
        )
        self._mark_dirty(a, b)

    # ------------------------------------------------------------------ #
    # readers
    # ------------------------------------------------------------------ #
    def model_ids(self) -> list[str]:
        return self.models.distinct("model_id")

    def dataset_ids(self, modality: str | None = None) -> list[str]:
        if modality is None:
            return self.datasets.distinct("dataset_id")
        return sorted(r["dataset_id"] for r in self.datasets.filter(modality=modality))

    def target_dataset_ids(self) -> list[str]:
        return sorted(r["dataset_id"] for r in self.datasets.filter(is_target=True))

    def get_similarity(self, dataset_a: str, dataset_b: str,
                       method: str = "domain_similarity") -> float | None:
        a, b = sorted((dataset_a, dataset_b))
        row = self.similarity.get_or_none(a, b, method)
        return row["similarity"] if row else None

    def get_transferability(self, model_id: str, dataset_id: str,
                            metric: str = "logme") -> float | None:
        row = self.transferability.get_or_none(model_id, dataset_id, metric)
        return row["score"] if row else None

    def get_accuracy(self, model_id: str, dataset_id: str,
                     method: str = "finetune") -> float | None:
        row = self.history.get_or_none(model_id, dataset_id, method)
        return row["accuracy"] if row else None

    def history_for_dataset(self, dataset_id: str,
                            method: str = "finetune") -> list[dict]:
        return self.history.filter(dataset_id=dataset_id, method=method)

    def accuracy_matrix(self, model_ids: list[str], dataset_ids: list[str],
                        method: str = "finetune") -> np.ndarray:
        """Dense (models × datasets) accuracy matrix; NaN where unknown."""
        out = np.full((len(model_ids), len(dataset_ids)), np.nan)
        for i, m in enumerate(model_ids):
            for j, d in enumerate(dataset_ids):
                acc = self.get_accuracy(m, d, method=method)
                if acc is not None:
                    out[i, j] = acc
        return out

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    _TABLES = ("models", "datasets", "history", "transferability", "similarity")

    def save(self, path: str | Path) -> None:
        """Serialise the whole catalog to a single JSON file."""
        payload = {name: getattr(self, name).to_records() for name in self._TABLES}
        Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "ZooCatalog":
        payload = json.loads(Path(path).read_text())
        catalog = cls()
        for name in cls._TABLES:
            getattr(catalog, name).load_records(payload.get(name, []))
        return catalog

    def stats(self) -> dict[str, int]:
        """Row counts per table (used by the Table II benchmark)."""
        return {name: len(getattr(self, name)) for name in self._TABLES}
