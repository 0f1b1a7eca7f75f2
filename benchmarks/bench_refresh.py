"""Incremental graph refresh vs a full re-embed.

Not a paper figure: this gates ``SelectionService.refresh``, which
re-fits a served TG pipeline after a catalog write without re-embedding
the whole graph.  The contract:

- **Incremental refresh is O(changed edges).**  After a 1-row history
  update, `Node2Vec.refresh` re-walks only the dirty nodes' 1-hop
  frontier and warm-starts SGNS, while a full refit re-embeds every
  node.  Embedding dominates a TG fit (>90% of fit wall-clock on the
  tiny zoo), so the learner-level speedup bounds the service-level
  one.  Required: >=5x on a graph large enough that the frontier is a
  small fraction of the nodes (360 nodes here; the ratio grows with
  zoo size because refresh cost tracks the frontier, not the graph).
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import print_header
from benchmarks.helpers import BENCH_EMBEDDING_DIM
from repro.graph import ModelDatasetGraph, Node2Vec


def _synthetic_graph(n_models: int = 240, n_datasets: int = 120,
                     degree: int = 10) -> ModelDatasetGraph:
    """The GraphBuilder's output shape, at a size the tiny zoo can't reach."""
    g = ModelDatasetGraph()
    models = [f"m{i}" for i in range(n_models)]
    datasets = [f"d{i}" for i in range(n_datasets)]
    for m in models:
        g.add_node(m, "model")
    for d in datasets:
        g.add_node(d, "dataset")
    rng = np.random.default_rng(11)
    for i, m in enumerate(models):
        for d in rng.choice(n_datasets, size=degree, replace=False):
            g.add_edge(m, datasets[d], 0.2 + 0.8 * ((i + d) % 13) / 13,
                       "accuracy")
    for i in range(n_datasets - 1):
        g.add_edge(datasets[i], datasets[i + 1], 0.5, "similarity")
    return g


def _run_refresh() -> dict[str, float]:
    graph = _synthetic_graph()
    learner = Node2Vec(dim=BENCH_EMBEDDING_DIM, seed=3,
                       num_walks=4, walk_length=10, epochs=2)

    start = time.perf_counter()
    embeddings = learner.embed(graph)
    full_s = time.perf_counter() - start

    # a single history-row update dirties its two incident nodes
    dirty = {"m7", "d3"}
    start = time.perf_counter()
    refreshed = learner.refresh(graph, embeddings, dirty)
    refresh_s = time.perf_counter() - start
    assert set(refreshed) == set(graph.nodes())

    frontier = set(dirty)
    for node in dirty:
        frontier.update(nb for nb, _w, _k in graph.neighbors(node))
    return {
        "full_s": full_s,
        "refresh_s": refresh_s,
        "frontier": len(frontier),
        "nodes": len(graph.nodes()),
    }


def test_bench_refresh(benchmark):
    rows = benchmark.pedantic(_run_refresh, rounds=1, iterations=1)

    print_header("Incremental refresh vs full re-embed")
    print(f"  full embed ({rows['nodes']:.0f} nodes)     "
          f"{rows['full_s'] * 1e3:8.1f} ms")
    print(f"  refresh (frontier {rows['frontier']:.0f})      "
          f"{rows['refresh_s'] * 1e3:8.1f} ms")
    refresh_speedup = rows["full_s"] / rows["refresh_s"]
    print(f"  incremental speedup       {refresh_speedup:8.1f}x")

    assert refresh_speedup >= 5.0
