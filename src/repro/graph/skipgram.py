"""Skip-gram with negative sampling (SGNS) over random walks (§VIII-B1).

Walks are treated as sentences; co-occurring nodes within a window become
(center, context) pairs, trained with the word2vec SGNS objective:

    maximise  log σ(u_c · v_o) + Σ_neg log σ(-u_c · v_n)

Negatives are drawn from the unigram distribution raised to 3/4.  Updates
are hand-vectorised over mini-batches (our autograd would be needless
overhead for two embedding tables).

Scatter-order contract: training is bit-for-bit reproducible for a given
seed, and the kernel is written so it stays so.  A node can occur many
times in one batch, and floating-point addition is not associative, so
the order in which a batch's gradient rows are added decides the
result.  Each table takes one unbuffered 1-D ``np.add.at`` over flat
``row * dim + column`` offsets: rows are applied in batch order (for
``emb_out``, every context row and then every negative row), so every
element sees exactly the sequence of additions a row-wise ``np.add.at``
would make, while numpy runs its fast 1-D indexed loop.  A sorted
segment sum (``np.add.reduceat``) is faster still, but it regroups those
additions, and the last-bit differences compound over a fit's hundreds
of batches: on the tiny zoo one TG fit's embeddings moved by up to 3.65
and its served ranking changed.
Negatives are drawn per batch, as ``Generator.choice`` would draw them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = ["SkipGramConfig", "train_skipgram"]


@dataclass(frozen=True)
class SkipGramConfig:
    """SGNS hyperparameters."""

    dim: int = 128
    window: int = 5
    negatives: int = 5
    epochs: int = 3
    learning_rate: float = 0.025
    min_learning_rate: float = 1e-4
    batch_size: int = 512

    def __post_init__(self):
        if self.dim <= 0 or self.window <= 0 or self.negatives <= 0:
            raise ValueError("dim, window and negatives must be positive")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")


def _pairs_from_walks(walks: list[list[int]], window: int,
                      rng: np.random.Generator) -> np.ndarray:
    """(center, context) index pairs with word2vec-style random windows.

    Every position draws its window span (one ``integers`` call for all
    positions, the same stream as one call each); pairs come out in walk
    order, each center's contexts left to right.
    """
    lengths = np.array([len(walk) for walk in walks], dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty((0, 2), dtype=np.int64)
    spans = rng.integers(1, window + 1, size=total)
    nodes = np.fromiter(itertools.chain.from_iterable(walks), dtype=np.int64,
                        count=total)
    ends = np.cumsum(lengths)
    walk_start = np.repeat(ends - lengths, lengths)
    walk_end = np.repeat(ends, lengths)
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    context = np.arange(total)[:, None] + offsets              # (positions, 2w)
    keep = ((np.abs(offsets) <= spans[:, None])
            & (context >= walk_start[:, None]) & (context < walk_end[:, None]))
    centers = np.broadcast_to(nodes[:, None], context.shape)[keep]
    return np.stack([centers, nodes[context[keep]]], axis=1)


#: power-of-two grid buckets of the negative-sampling lookup table
_NOISE_BUCKETS = 4096


def _inverse_cdf(cdf: np.ndarray):
    """``u -> cdf.searchsorted(u, side="right")`` for uniforms in [0, 1).

    ``Generator.choice`` samples by that binary search, which is slow on
    random keys.  With ``M = _NOISE_BUCKETS`` a power of two, ``u * M``
    is exact, so bucket ``j`` holds exactly the uniforms in
    ``[j/M, (j+1)/M)``; where no CDF step falls inside a bucket, every
    such uniform maps to the same, precomputed index.  Only the rest (a
    few percent of draws) take the binary search, so the indices are
    identical.
    """
    grid = np.arange(_NOISE_BUCKETS + 1) / _NOISE_BUCKETS
    first = cdf.searchsorted(grid[:-1], side="right")
    settled = first == cdf.searchsorted(grid[1:], side="right")

    def search(uniforms: np.ndarray) -> np.ndarray:
        bucket = (uniforms * _NOISE_BUCKETS).astype(np.intp)
        out = first[bucket]
        unsettled = ~settled[bucket]
        if unsettled.any():
            out[unsettled] = cdf.searchsorted(uniforms[unsettled], side="right")
        return out

    return search


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
    dim = config.dim

    visits = np.fromiter(itertools.chain.from_iterable(walks_idx),
                         dtype=np.int64)
    counts = np.bincount(visits, minlength=v).astype(np.float64)
    noise = counts**0.75
    noise_sum = noise.sum()
    noise = noise / noise_sum if noise_sum > 0 else np.full(v, 1.0 / v)
    # Generator.choice(v, p=noise)'s inverse CDF, built once per fit
    noise_cdf = noise.cumsum()
    noise_cdf /= noise_cdf[-1]
    draw_negatives = _inverse_cdf(noise_cdf)

    emb_in = (rng.random((v, dim)) - 0.5) / dim
    if init:
        for node, vector in init.items():
            i = index.get(node)
            if i is not None and np.shape(vector) == (dim,):
                emb_in[i] = np.asarray(vector, dtype=float)
    emb_out = np.zeros((v, dim))
    flat_in, flat_out = emb_in.reshape(-1), emb_out.reshape(-1)  # views
    # flat offsets of every table row: row r is r*dim .. r*dim + dim - 1
    row_offsets = np.arange(v)[:, None] * dim + np.arange(dim)

    pairs = _pairs_from_walks(walks_idx, config.window, rng)
    if pairs.shape[0] == 0:
        return {node: emb_in[index[node]].copy() for node in vocabulary}

    clip = 5.0
    total_steps = config.epochs * int(np.ceil(len(pairs) / config.batch_size))
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(pairs))
        for start in range(0, len(pairs), config.batch_size):
            batch = pairs.take(order[start:start + config.batch_size], axis=0)
            centers, contexts = batch[:, 0], batch[:, 1]
            b = len(batch)
            lr = max(config.min_learning_rate,
                     config.learning_rate * (1.0 - step / max(1, total_steps)))
            step += 1

            negs = draw_negatives(rng.random((b, config.negatives)))  # (b, k)
            c_vec = emb_in.take(centers, axis=0)          # (b, dim)
            pos_vec = emb_out.take(contexts, axis=0)      # (b, dim)
            neg_vec = emb_out.take(negs, axis=0)          # (b, k, dim)

            pos_score = _sigmoid((c_vec * pos_vec).sum(axis=1))       # (b,)
            neg_score = _sigmoid(np.einsum("bd,bkd->bk", c_vec, neg_vec))

            g_pos = (pos_score - 1.0)[:, None]            # d/d(dot) of -log σ

            # Clip per-coordinate gradients: prolonged training on tiny,
            # heavily-revisited graphs can otherwise blow embeddings up.
            grad_center = g_pos * pos_vec
            grad_center += np.einsum("bk,bkd->bd", neg_score, neg_vec)
            np.clip(grad_center, -clip, clip, out=grad_center)
            grad_center *= -lr
            # emb_out's rows: every context, then every negative
            out_rows = np.concatenate([contexts, negs.reshape(-1)])
            grad_out = np.empty((len(out_rows), dim))
            np.multiply(g_pos, c_vec, out=grad_out[:b])
            np.multiply(neg_score[:, :, None], c_vec[:, None, :],
                        out=grad_out[b:].reshape(neg_vec.shape))
            np.clip(grad_out, -clip, clip, out=grad_out)
            grad_out *= -lr

            # One 1-D scatter per table, rows in batch order (module doc).
            np.add.at(flat_in, row_offsets.take(centers, axis=0).reshape(-1),
                      grad_center.reshape(-1))
            np.add.at(flat_out, row_offsets.take(out_rows, axis=0).reshape(-1),
                      grad_out.reshape(-1))
            # Light decay keeps norms bounded regardless of training length.
            emb_in[centers] *= 1.0 - lr * 1e-3
            emb_out[contexts] *= 1.0 - lr * 1e-3

    return {node: emb_in[index[node]].copy() for node in vocabulary}
