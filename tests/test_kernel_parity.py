"""The vectorised Node2Vec walk and SGNS kernels match the loop originals.

``tests/reference_kernels.py`` holds the per-step/per-pair loop
implementations.  The served kernels must return *identical* walks and
bit-identical (``np.array_equal``) embeddings, and leave each random
generator in the same state, across the configuration matrix below.
These tests fail as soon as a numpy release changes the
``Generator.choice``/``integers`` streams the vectorised code reproduces.
"""

from __future__ import annotations

import numpy as np
import pytest
import reference_kernels as reference

from repro.graph import ModelDatasetGraph, SkipGramConfig, WalkConfig
from repro.graph import skipgram, walks


def zoo_like_graph(seed: int = 0, isolated: bool = True) -> ModelDatasetGraph:
    """Models and datasets with weighted accuracy/similarity edges.

    One model-dataset pair carries a parallel transferability edge (its
    weights merge), and ``isolated`` adds a node without edges.
    """
    rng = np.random.default_rng(seed)
    g = ModelDatasetGraph()
    models = [f"m{i}" for i in range(24)]
    datasets = [f"d{i}" for i in range(12)]
    for m in models:
        g.add_node(m, "model")
    for d in datasets:
        g.add_node(d, "dataset")
    for m in models:
        for d in rng.choice(len(datasets), size=3, replace=False):
            g.add_edge(m, datasets[d], 0.05 + float(rng.random()), "accuracy")
    for a, b in zip(datasets[:-1], datasets[1:]):
        g.add_edge(a, b, 0.05 + float(rng.random()), "similarity")
    g.add_edge(models[0], datasets[0], 0.3, "transferability")
    if isolated:
        g.add_node("lonely", "dataset")
    return g


def assert_same_stream(rng_a, rng_b) -> None:
    """Both generators consumed exactly the same draws."""
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def assert_same_embeddings(expected, actual) -> None:
    assert list(expected) == list(actual)
    for node, vector in expected.items():
        assert np.array_equal(vector, actual[node]), node


def both_walks(graph, config, seed, **kwargs):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = reference.generate_walks(graph, config, rng_a, **kwargs)
    actual = walks.generate_walks(graph, config, rng_b, **kwargs)
    assert actual == expected
    assert_same_stream(rng_a, rng_b)
    return actual


def both_embeddings(walk_list, vocabulary, config, seed, **kwargs):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = reference.train_skipgram(walk_list, vocabulary, config, rng_a,
                                        **kwargs)
    actual = skipgram.train_skipgram(walk_list, vocabulary, config, rng_b,
                                     **kwargs)
    assert_same_embeddings(expected, actual)
    assert_same_stream(rng_a, rng_b)
    return actual


class TestWalkParity:
    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["node2vec", "node2vec+"])
    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (0.5, 2.0)])
    def test_walks_identical(self, weighted, p, q):
        config = WalkConfig(num_walks=4, walk_length=15, p=p, q=q,
                            weighted=weighted)
        out = both_walks(zoo_like_graph(), config, seed=3)
        assert out and all(w[0] != "lonely" for w in out)

    def test_start_nodes_subset(self):
        config = WalkConfig(num_walks=3, walk_length=9, p=0.5, q=2.0)
        out = both_walks(zoo_like_graph(), config, seed=5,
                         start_nodes=["d3", "m7", "lonely", "unknown", "m7"])
        assert {w[0] for w in out} == {"d3", "m7"}

    def test_only_isolated_or_unknown_starts(self):
        config = WalkConfig(num_walks=2, walk_length=5)
        assert both_walks(zoo_like_graph(), config, seed=1,
                          start_nodes=["lonely", "unknown"]) == []

    def test_zero_weight_edges_fall_back_to_uniform(self):
        g = ModelDatasetGraph()
        for name in ("a", "b", "c"):
            g.add_node(name, "dataset")
        g.add_edge("a", "b", 0.0, "similarity")
        g.add_edge("b", "c", 0.0, "similarity")
        config = WalkConfig(num_walks=3, walk_length=6, weighted=True)
        both_walks(g, config, seed=2)


class TestSkipGramParity:
    @pytest.mark.parametrize("dim", [8, 32, 128])
    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["node2vec", "node2vec+"])
    def test_embeddings_identical(self, dim, weighted):
        graph = zoo_like_graph()
        walk_list = both_walks(
            graph, WalkConfig(num_walks=4, walk_length=12, weighted=weighted),
            seed=9)
        both_embeddings(walk_list, graph.nodes(),
                        SkipGramConfig(dim=dim, epochs=2), seed=4)

    def test_warm_start_with_bad_init_entries(self):
        graph = zoo_like_graph()
        nodes = graph.nodes()
        init = {n: np.full(16, 0.01 * i) for i, n in enumerate(nodes)}
        init["d2"] = np.zeros(8)           # wrong dim: ignored
        init["not-a-node"] = np.ones(16)   # unknown node: ignored
        walk_list = both_walks(graph, WalkConfig(num_walks=2, walk_length=8),
                               seed=6, start_nodes=["d2", "m3"])
        out = both_embeddings(walk_list, nodes, SkipGramConfig(dim=16),
                              seed=7, init=init)
        # nodes no walk touches keep their warm-start vector verbatim
        walked = {n for walk in walk_list for n in walk}
        untouched = sorted(set(nodes) - walked - {"d2"})
        assert untouched
        for node in untouched:
            assert np.array_equal(out[node], init[node])

    def test_partial_last_batch(self):
        graph = zoo_like_graph()
        nodes = graph.nodes()
        walk_list = both_walks(graph, WalkConfig(num_walks=1, walk_length=6),
                               seed=8)
        config = SkipGramConfig(dim=8, epochs=3, batch_size=97)
        # the pairs training will see: the same draws, after emb_in's init
        rng = np.random.default_rng(10)
        rng.random((len(nodes), config.dim))
        pairs = reference._pairs_from_walks(
            [[nodes.index(n) for n in w] for w in walk_list], config.window,
            rng)
        assert len(pairs) > config.batch_size
        assert len(pairs) % config.batch_size != 0
        both_embeddings(walk_list, nodes, config, seed=10)

    @pytest.mark.parametrize("walk_list", [[], [["m0"], ["d1"]], [[], ["m0"]]],
                             ids=["no-walks", "single-node", "empty-walk"])
    def test_walks_too_short_for_pairs(self, walk_list):
        nodes = zoo_like_graph().nodes()
        both_embeddings(walk_list, nodes, SkipGramConfig(dim=8), seed=11)

    @pytest.mark.parametrize("window", [1, 3, 5])
    def test_pairs_identical(self, window):
        graph = zoo_like_graph()
        index = {n: i for i, n in enumerate(graph.nodes())}
        walk_list = both_walks(graph, WalkConfig(num_walks=2, walk_length=7),
                               seed=12)
        walk_idx = [[index[n] for n in w] for w in walk_list] + [[3], [4, 5]]
        rng_a, rng_b = np.random.default_rng(13), np.random.default_rng(13)
        expected = reference._pairs_from_walks(walk_idx, window, rng_a)
        actual = skipgram._pairs_from_walks(walk_idx, window, rng_b)
        assert actual.dtype == expected.dtype == np.int64
        assert np.array_equal(actual, expected)
        assert_same_stream(rng_a, rng_b)


def test_tiny_zoo_tg_ranking_identical(tiny_image_zoo, monkeypatch):
    """The served TG strategy ranks identically under the loop kernels."""
    from repro.graph import learners
    from repro.strategies import get_strategy

    zoo = tiny_image_zoo
    target = zoo.target_names()[0]

    def fit_and_rank():
        strategy = get_strategy("tg:lr,n2v,all", embedding_dim=32)
        fitted = strategy.fit(zoo, target)
        return fitted.rank(zoo.model_ids()), fitted.predict(zoo.model_ids())

    ranking, scores = fit_and_rank()
    monkeypatch.setattr(learners, "generate_walks", reference.generate_walks)
    monkeypatch.setattr(learners, "train_skipgram", reference.train_skipgram)
    expected_ranking, expected_scores = fit_and_rank()
    assert ranking == expected_ranking
    assert np.array_equal(scores, expected_scores)
