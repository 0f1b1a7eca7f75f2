"""Pack/unpack a :class:`FittedTransferGraph` into portable artifacts.

An artifact is a pair ``(meta, arrays)``:

- ``meta`` is a JSON-able dict: format version, target, the full config,
  both fingerprints, feature names, graph statistics, and the predictor
  and assembler states with every numpy array replaced by an
  ``{"__array__": key}`` reference;
- ``arrays`` maps those keys to the actual ``np.ndarray`` values, stored
  losslessly as raw bytes in the registry's one artifact file.

This module lives in the *strategies* layer, not serving: pack/unpack
is the :class:`~repro.strategies.SelectionStrategy` artifact contract
(every strategy implements it, and the process fit plane ships fitted
state across it), while the serving registry is merely its persistence.

Splitting this way keeps the metadata human-inspectable while arrays
round-trip bit-for-bit.  The pruned LOO graph is stored too (node ids +
kinds and edge endpoints/kinds in the meta, edge weights in the arrays):
rebuilding it from the catalog dominated registry-warm loads (~200 ms on
the tiny zoo), so revival now reconstructs it from the artifact instead.
Drift is impossible because every load already validates the catalog
fingerprint — a catalog change stales the whole artifact, graph
included.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from repro.core.config import TransferGraphConfig
from repro.core.features import FeatureAssembler
from repro.core.framework import FittedTransferGraph
from repro.graph import GraphBuilder
from repro.predictors import get_predictor
from repro.strategies.fingerprint import catalog_fingerprint, config_fingerprint

__all__ = ["ArtifactError", "ArtifactNotFoundError", "StaleArtifactError",
           "ARTIFACT_FORMAT_VERSION", "pack_fitted", "unpack_fitted"]

#: bump when the artifact layout changes; older artifacts refuse to load
ARTIFACT_FORMAT_VERSION = 1

#: separator inside array keys (same idiom as the zoo weight cache)
_SEP = "::"

_ARRAY_REF = "__array__"


class ArtifactError(RuntimeError):
    """Base class for registry/artifact failures."""


class ArtifactNotFoundError(ArtifactError):
    """No artifact stored for the requested (target, config)."""


class StaleArtifactError(ArtifactError):
    """A stored artifact no longer matches the live catalog or config."""


# ---------------------------------------------------------------------- #
# generic state <-> (json, arrays) flattening
# ---------------------------------------------------------------------- #
def _pack_value(value, arrays: dict, path: str):
    if isinstance(value, np.ndarray):
        arrays[path] = value
        return {_ARRAY_REF: path}
    if isinstance(value, dict):
        return {key: _pack_value(v, arrays, f"{path}{_SEP}{key}")
                for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pack_value(v, arrays, f"{path}{_SEP}{i}")
                for i, v in enumerate(value)]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


def _unpack_value(value, arrays: dict):
    if isinstance(value, dict):
        if set(value) == {_ARRAY_REF}:
            return arrays[value[_ARRAY_REF]]
        return {key: _unpack_value(v, arrays) for key, v in value.items()}
    if isinstance(value, list):
        return [_unpack_value(v, arrays) for v in value]
    return value


# ---------------------------------------------------------------------- #
def pack_fitted(fitted: FittedTransferGraph, config: TransferGraphConfig,
                zoo) -> tuple[dict, dict[str, np.ndarray]]:
    """Serialise a fitted pipeline into ``(meta, arrays)``."""
    arrays: dict[str, np.ndarray] = {}

    embedding_nodes = sorted(fitted.embeddings)
    for node in embedding_nodes:
        arrays[f"embeddings{_SEP}{node}"] = np.asarray(
            fitted.embeddings[node], dtype=np.float64)

    meta = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "target": fitted.target,
        "config": asdict(config),
        "config_fingerprint": config_fingerprint(config),
        "catalog_fingerprint": catalog_fingerprint(zoo.catalog),
        "feature_names": list(fitted.feature_names),
        "graph_stats": {k: _pack_value(v, arrays, f"graph_stats{_SEP}{k}")
                        for k, v in fitted.graph_stats.items()},
        "embedding_nodes": embedding_nodes,
        "predictor_state": _pack_value(fitted.predictor.get_state(), arrays,
                                       "predictor"),
        "assembler_state": _pack_value(fitted.assembler.get_state(), arrays,
                                       "assembler"),
    }

    graph = getattr(fitted.assembler, "graph", None)
    if graph is not None:
        edges = graph.edges()
        meta["graph"] = {
            "nodes": [[n, graph.node_kind(n)] for n in graph.nodes()],
            "edges": [[e.u, e.v, e.kind] for e in edges],
        }
        arrays[f"graph{_SEP}edge_weights"] = np.asarray(
            [e.weight for e in edges], dtype=np.float64)
    return meta, arrays


def _graph_from_meta(stored: dict, arrays: dict):
    """Reconstruct the pruned LOO graph persisted by :func:`pack_fitted`.

    Node features are deliberately not restored: after the fit, the
    assembler only walks edges (the two-hop affinity feature); the graph
    learner never runs again on a revived pipeline.
    """
    from repro.graph.graph import ModelDatasetGraph

    graph = ModelDatasetGraph()
    for node_id, kind in stored["nodes"]:
        graph.add_node(node_id, kind)
    weights = np.asarray(arrays[f"graph{_SEP}edge_weights"],
                         dtype=np.float64)
    if len(weights) != len(stored["edges"]):
        raise ValueError(
            f"graph edge list ({len(stored['edges'])}) and weight vector "
            f"({len(weights)}) disagree")
    for (u, v, kind), weight in zip(stored["edges"], weights):
        graph.add_edge(u, v, float(weight), kind)
    return graph


def unpack_fitted(meta: dict, arrays: dict, zoo,
                  config: TransferGraphConfig) -> FittedTransferGraph:
    """Revive a fitted pipeline, validating freshness first.

    Raises :class:`StaleArtifactError` when the artifact was written for
    a different config, a different catalog, or an older artifact format.
    """
    version = meta.get("format_version")
    if version != ARTIFACT_FORMAT_VERSION:
        raise StaleArtifactError(
            f"artifact format v{version} != supported v{ARTIFACT_FORMAT_VERSION}")
    if meta["config_fingerprint"] != config_fingerprint(config):
        raise StaleArtifactError(
            f"artifact for target {meta['target']!r} was fitted under a "
            "different TransferGraph configuration")
    live = catalog_fingerprint(zoo.catalog)
    if meta["catalog_fingerprint"] != live:
        raise StaleArtifactError(
            f"artifact for target {meta['target']!r} is stale: catalog "
            f"fingerprint {meta['catalog_fingerprint']} != live {live}")

    target = meta["target"]
    embeddings = {node: np.asarray(arrays[f"embeddings{_SEP}{node}"],
                                   dtype=np.float64)
                  for node in meta["embedding_nodes"]}

    graph = None
    if config.features.graph_features:
        # The pruned LOO graph ships inside the artifact, so revival
        # skips the catalog rebuild entirely.  Derived similarity tables
        # may still be cold in a fresh process — ensure them (a few
        # lookups when already filled) without paying for graph
        # construction.
        graph = _graph_from_meta(meta["graph"], arrays)
        GraphBuilder(zoo, config.graph).ensure_similarities()
    elif config.features.dataset_similarity:
        # Graph-less configs with the similarity feature (lr:all,
        # lr:all+logme) read pairwise dataset similarities from the
        # live catalog at predict time.  A fresh process — a registry
        # revival after restart, or the parent unpacking a
        # process-worker fit — has an empty derived table, and
        # _similarity_feature silently degrades to 0.0; ensure the
        # (deterministic) similarities so revived pipelines predict
        # identically to freshly-fitted ones.
        GraphBuilder(zoo, config.graph).ensure_similarities()

    assembler = FeatureAssembler(
        zoo=zoo,
        features=config.features,
        embeddings=embeddings if config.features.graph_features else None,
        transferability_metric=config.graph.transferability_metric,
        similarity_method=config.graph.similarity_method,
        graph=graph,
    )
    assembler.set_state(_unpack_value(meta["assembler_state"], arrays))

    predictor = get_predictor(config.predictor)
    predictor.set_state(_unpack_value(meta["predictor_state"], arrays))

    return FittedTransferGraph(
        target=target,
        assembler=assembler,
        predictor=predictor,
        embeddings=embeddings,
        graph_stats=_unpack_value(meta["graph_stats"], arrays),
        feature_names=list(meta["feature_names"]),
    )
