"""The original loop implementations of the Node2Vec walk and SGNS kernels.

Test-only reference: ``repro.graph.walks`` and ``repro.graph.skipgram``
vectorise these loops and must reproduce them bit for bit, down to the
order in which they consume the random stream (see
``tests/test_kernel_parity.py``).  Kept verbatim; do not modernise.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import ModelDatasetGraph
from repro.graph.skipgram import SkipGramConfig
from repro.graph.walks import WalkConfig

__all__ = ["generate_walks", "_pairs_from_walks", "train_skipgram"]


def _collapse_neighbors(graph: ModelDatasetGraph,
                        node: str) -> tuple[list[str], np.ndarray]:
    """Unique neighbors with summed edge weights (parallel edges merge)."""
    totals: dict[str, float] = {}
    for neighbor, weight, _ in graph.neighbors(node):
        totals[neighbor] = totals.get(neighbor, 0.0) + weight
    names = sorted(totals)
    return names, np.array([totals[n] for n in names])


def _step_probabilities(neighbors: list[str], weights: np.ndarray,
                        previous: str | None,
                        previous_neighbors: set[str],
                        config: WalkConfig) -> np.ndarray:
    base = weights if config.weighted else np.ones(len(neighbors))
    bias = np.empty(len(neighbors))
    for k, candidate in enumerate(neighbors):
        if previous is None:
            bias[k] = 1.0
        elif candidate == previous:
            bias[k] = 1.0 / config.p
        elif candidate in previous_neighbors:
            bias[k] = 1.0
        else:
            bias[k] = 1.0 / config.q
    probs = base * bias
    total = probs.sum()
    if total <= 0:
        return np.full(len(neighbors), 1.0 / len(neighbors))
    return probs / total


def generate_walks(graph: ModelDatasetGraph, config: WalkConfig,
                   rng: np.random.Generator,
                   start_nodes: list[str] | None = None) -> list[list[str]]:
    """Generate ``num_walks`` biased walks from every node.

    ``start_nodes`` restricts where walks *start* (walks still traverse
    the whole graph): the incremental-refresh path passes the dirty
    neighborhood here so re-walking costs O(changed nodes), not
    O(graph).  Unknown names are ignored.
    """
    neighbor_cache: dict[str, tuple[list[str], np.ndarray]] = {
        node: _collapse_neighbors(graph, node) for node in graph.nodes()
    }
    neighbor_sets = {node: set(names) for node, (names, _) in neighbor_cache.items()}

    walks: list[list[str]] = []
    if start_nodes is None:
        nodes = graph.nodes()
    else:
        known = set(graph.nodes())
        nodes = sorted(n for n in set(start_nodes) if n in known)
    if not nodes:
        return walks
    for _ in range(config.num_walks):
        order = rng.permutation(len(nodes))
        for node_idx in order:
            start = nodes[node_idx]
            if not neighbor_cache[start][0]:
                continue  # isolated node: nothing to walk
            walk = [start]
            previous: str | None = None
            current = start
            while len(walk) < config.walk_length:
                neighbors, weights = neighbor_cache[current]
                if not neighbors:
                    break
                probs = _step_probabilities(
                    neighbors, weights, previous,
                    neighbor_sets[previous] if previous else set(), config)
                nxt = neighbors[int(rng.choice(len(neighbors), p=probs))]
                walk.append(nxt)
                previous, current = current, nxt
            walks.append(walk)
    return walks


def _pairs_from_walks(walks: list[list[int]], window: int,
                      rng: np.random.Generator) -> np.ndarray:
    """(center, context) index pairs with word2vec-style random windows."""
    pairs = []
    for walk in walks:
        length = len(walk)
        for i, center in enumerate(walk):
            span = int(rng.integers(1, window + 1))
            for j in range(max(0, i - span), min(length, i + span + 1)):
                if j != i:
                    pairs.append((center, walk[j]))
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30, 30)))


def train_skipgram(walks: list[list[str]], vocabulary: list[str],
                   config: SkipGramConfig,
                   rng: np.random.Generator,
                   init: dict[str, np.ndarray] | None = None,
                   ) -> dict[str, np.ndarray]:
    """Train SGNS embeddings; returns {node: vector(dim)}.

    Nodes that never appear in a walk keep their random initialisation
    (they are isolated in the graph; downstream code treats their
    embedding as uninformative noise, which is the honest signal).

    ``init`` warm-starts the input embedding table from a previous
    training run: nodes present in ``init`` (with a matching dim) start
    from their old vector and nodes absent from the walks *keep* it
    verbatim — the incremental-refresh contract, where only the dirty
    neighborhood is re-walked and the rest of the embedding space must
    not drift.
    """
    index = {node: i for i, node in enumerate(vocabulary)}
    walks_idx = [[index[n] for n in walk] for walk in walks]
    v = len(vocabulary)

    counts = np.zeros(v)
    for walk in walks_idx:
        for node in walk:
            counts[node] += 1
    noise = counts**0.75
    noise_sum = noise.sum()
    noise = noise / noise_sum if noise_sum > 0 else np.full(v, 1.0 / v)

    emb_in = (rng.random((v, config.dim)) - 0.5) / config.dim
    if init:
        for node, vector in init.items():
            i = index.get(node)
            if i is not None and np.shape(vector) == (config.dim,):
                emb_in[i] = np.asarray(vector, dtype=float)
    emb_out = np.zeros((v, config.dim))

    pairs = _pairs_from_walks(walks_idx, config.window, rng)
    if pairs.shape[0] == 0:
        return {node: emb_in[index[node]].copy() for node in vocabulary}

    total_steps = config.epochs * int(np.ceil(len(pairs) / config.batch_size))
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(pairs))
        for start in range(0, len(pairs), config.batch_size):
            batch = pairs[order[start:start + config.batch_size]]
            centers, contexts = batch[:, 0], batch[:, 1]
            b = len(batch)
            lr = max(config.min_learning_rate,
                     config.learning_rate * (1.0 - step / max(1, total_steps)))
            step += 1

            negs = rng.choice(v, size=(b, config.negatives), p=noise)
            c_vec = emb_in[centers]                       # (b, dim)
            pos_vec = emb_out[contexts]                   # (b, dim)
            neg_vec = emb_out[negs]                       # (b, k, dim)

            pos_score = _sigmoid((c_vec * pos_vec).sum(axis=1))       # (b,)
            neg_score = _sigmoid(np.einsum("bd,bkd->bk", c_vec, neg_vec))

            g_pos = (pos_score - 1.0)[:, None]            # d/d(dot) of -log σ
            g_neg = neg_score[:, :, None]                 # (b, k, 1)

            # Clip per-coordinate gradients: prolonged training on tiny,
            # heavily-revisited graphs can otherwise blow embeddings up.
            clip = 5.0
            grad_center = np.clip(
                g_pos * pos_vec + (g_neg * neg_vec).sum(axis=1), -clip, clip)
            grad_context = np.clip(g_pos * c_vec, -clip, clip)
            grad_neg = np.clip(g_neg * c_vec[:, None, :], -clip, clip)

            np.add.at(emb_in, centers, -lr * grad_center)
            np.add.at(emb_out, contexts, -lr * grad_context)
            np.add.at(emb_out.reshape(-1, config.dim),
                      negs.reshape(-1),
                      (-lr * grad_neg).reshape(-1, config.dim))
            # Light decay keeps norms bounded regardless of training length.
            emb_in[centers] *= 1.0 - lr * 1e-3
            emb_out[contexts] *= 1.0 - lr * 1e-3

    return {node: emb_in[index[node]].copy() for node in vocabulary}
