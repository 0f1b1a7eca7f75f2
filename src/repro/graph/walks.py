"""Biased second-order random walks (Node2Vec §V-B1, Node2Vec+ variant).

Following the paper's description:

- **Node2Vec** explores the *link structure only*: transition
  probabilities use the p/q biases on an unweighted view of the graph.
- **Node2Vec+** additionally multiplies transition probabilities by the
  edge weights ("the probability of visiting the next neighbor is
  associated with the edge weights").

Graphs here are small (hundreds of nodes), so each walk state's
transition distribution — one per (previous, current) pair, or per
current node when p = q = 1 — is built lazily, once per
:func:`generate_walks` call, as the inverse CDF that
``Generator.choice(n, p=probs)`` would build, and every step inverts a
uniform with a binary search.  Each walk draws its ``walk_length - 1``
uniforms in one call; that is the same stream, in the same order, as
one ``choice`` per step, so walks are identical to the per-step loop.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.graph.graph import ModelDatasetGraph

__all__ = ["WalkConfig", "generate_walks"]


@dataclass(frozen=True)
class WalkConfig:
    """Random-walk hyperparameters."""

    num_walks: int = 10       # walks started per node
    walk_length: int = 20     # nodes per walk
    p: float = 1.0            # return parameter (1/p to revisit previous)
    q: float = 1.0            # in-out parameter (1/q to move outward)
    weighted: bool = False    # False -> Node2Vec, True -> Node2Vec+

    def __post_init__(self):
        if self.num_walks <= 0 or self.walk_length <= 1:
            raise ValueError("need num_walks >= 1 and walk_length >= 2")
        if self.p <= 0 or self.q <= 0:
            raise ValueError("p and q must be positive")


def _collapse_neighbors(graph: ModelDatasetGraph,
                        node: str) -> tuple[list[str], np.ndarray]:
    """Unique neighbors with summed edge weights (parallel edges merge)."""
    totals: dict[str, float] = {}
    for neighbor, weight, _ in graph.neighbors(node):
        totals[neighbor] = totals.get(neighbor, 0.0) + weight
    names = sorted(totals)
    return names, np.array([totals[n] for n in names])


def _step_cdf(weights: np.ndarray, bias: np.ndarray,
              config: WalkConfig) -> list[float]:
    """Inverse-CDF table of one walk state, as ``Generator.choice`` builds it.

    ``choice(n, p=probs)`` inverts ``probs.cumsum() / cdf[-1]`` with
    ``searchsorted(u, side="right")``; :func:`bisect.bisect_right` on the
    same doubles picks the same neighbor.
    """
    probs = weights * bias if config.weighted else bias
    total = probs.sum()
    if total <= 0:
        probs = np.full(len(bias), 1.0 / len(bias))
    else:
        probs = probs / total
    if not (probs >= 0).all():  # choice() rejects these (NaN, negatives)
        raise ValueError("walk transition probabilities are not non-negative")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def generate_walks(graph: ModelDatasetGraph, config: WalkConfig,
                   rng: np.random.Generator,
                   start_nodes: list[str] | None = None) -> list[list[str]]:
    """Generate ``num_walks`` biased walks from every node.

    ``start_nodes`` restricts where walks *start* (walks still traverse
    the whole graph): the incremental-refresh path passes the dirty
    neighborhood here so re-walking costs O(changed nodes), not
    O(graph).  Unknown names are ignored.
    """
    names = graph.nodes()
    index = {node: i for i, node in enumerate(names)}
    neighbors: list[list[int]] = []
    weights: list[np.ndarray] = []
    for node in names:
        neighbor_names, neighbor_weights = _collapse_neighbors(graph, node)
        neighbors.append([index[n] for n in neighbor_names])
        weights.append(neighbor_weights)
    neighbor_sets = [set(row) for row in neighbors]

    # (previous, current) -> inverse CDF; previous == -1 at a walk's start
    cdfs: dict[tuple[int, int], list[float]] = {}

    def step_cdf(previous: int, current: int) -> list[float]:
        row = neighbors[current]
        if previous < 0:
            bias = np.ones(len(row))
        else:
            near = neighbor_sets[previous]
            bias = np.array([1.0 / config.p if candidate == previous
                             else 1.0 if candidate in near
                             else 1.0 / config.q for candidate in row])
        cdf = cdfs[previous, current] = _step_cdf(weights[current], bias, config)
        return cdf

    walks: list[list[str]] = []
    if start_nodes is None:
        starts = list(range(len(names)))
    else:
        starts = sorted(index[n] for n in set(start_nodes) if n in index)
    if not starts:
        return walks
    steps = config.walk_length - 1
    # With p = q = 1 every bias is 1, so a step's distribution does not
    # depend on the previous node: key every state by its current node.
    memoryless = config.p == 1 and config.q == 1
    for _ in range(config.num_walks):
        for position in rng.permutation(len(starts)).tolist():
            current = starts[position]
            if not neighbors[current]:
                continue  # isolated node: nothing to walk
            # The graph is undirected, so every later node has a neighbor
            # (the one the walk came from) and the walk never ends early.
            walk = [names[current]]
            previous = -1
            for uniform in rng.random(steps).tolist():
                cdf = cdfs.get((previous, current)) or step_cdf(previous, current)
                nxt = neighbors[current][bisect_right(cdf, uniform)]
                walk.append(names[nxt])
                previous, current = (-1 if memoryless else current), nxt
            walks.append(walk)
    return walks
