"""Incremental refresh: the mutation log, localized re-walks, service path."""

import numpy as np
import pytest

from repro.core import FeatureSet, TransferGraphConfig
from repro.graph import (
    ModelDatasetGraph,
    Node2Vec,
    SkipGramConfig,
    WalkConfig,
    generate_walks,
    train_skipgram,
)
from repro.serving import ArtifactRegistry, SelectionService
from repro.store import ZooCatalog


def barbell_graph():
    g = ModelDatasetGraph()
    left = [f"m{i}" for i in range(4)]
    right = [f"d{i}" for i in range(4)]
    for n in left:
        g.add_node(n, "model")
    for n in right:
        g.add_node(n, "dataset")
    for i in range(4):
        for j in range(i + 1, 4):
            g.add_edge(left[i], right[j], 1.0, "accuracy")
            g.add_edge(left[j], right[i], 1.0, "accuracy")
    g.add_edge(left[0], right[0], 0.1, "transferability")
    return g


class TestMutationLog:
    def test_writers_mark_incident_nodes(self):
        cat = ZooCatalog()
        base = cat.mutation_seq
        cat.add_model(model_id="m1", architecture="vit-s", family="vit",
                      modality="image", pretrain_dataset="imagenet",
                      pretrain_accuracy=0.8, num_params=1000, memory_mb=4.0,
                      input_shape=32, embedding_dim=16, depth=3)
        cat.add_dataset(dataset_id="d1", modality="image", num_samples=100,
                        num_classes=5, input_dim=32, is_target=True)
        assert cat.dirty_nodes(base) == {"m1", "d1"}

        seq = cat.mutation_seq
        cat.record_history("m1", "d1", 0.9)
        assert cat.dirty_nodes(seq) == {"m1", "d1"}
        assert cat.mutation_seq == seq + 1

        seq = cat.mutation_seq
        cat.record_similarity("d2", "d1", 0.5)
        assert cat.dirty_nodes(seq) == {"d1", "d2"}

    def test_clean_since_current_seq(self):
        cat = ZooCatalog()
        cat.record_history("m1", "d1", 0.9)
        assert cat.dirty_nodes(cat.mutation_seq) == set()

    def test_trimmed_log_returns_none(self):
        from repro.store import catalog as catalog_mod
        cat = ZooCatalog()
        cat.record_history("m0", "d0", 0.5)
        original = catalog_mod._DIRTY_LOG_LIMIT
        catalog_mod._DIRTY_LOG_LIMIT = 4
        try:
            for i in range(8):
                cat.record_history(f"m{i}", f"d{i}", 0.5)
        finally:
            catalog_mod._DIRTY_LOG_LIMIT = original
        assert cat.dirty_nodes(0) is None
        # recent writes are still answerable
        assert cat.dirty_nodes(cat.mutation_seq) == set()


class TestLocalizedWalks:
    def test_start_nodes_restrict_walk_starts(self):
        g = barbell_graph()
        config = WalkConfig(num_walks=3, walk_length=5)
        walks = generate_walks(g, config, np.random.default_rng(0),
                               start_nodes=["m0", "d0"])
        assert walks
        assert {w[0] for w in walks} <= {"m0", "d0"}

    def test_unknown_start_nodes_ignored(self):
        g = barbell_graph()
        config = WalkConfig(num_walks=2, walk_length=4)
        assert generate_walks(g, config, np.random.default_rng(0),
                              start_nodes=["nope"]) == []

    def test_warm_start_preserves_unwalked_vectors(self):
        g = barbell_graph()
        config = SkipGramConfig(dim=8, epochs=1)
        rng = np.random.default_rng(0)
        init = {n: np.full(8, float(i)) for i, n in enumerate(g.nodes())}
        # walks that never touch d3 leave its init vector untouched
        walks = [["m0", "d1", "m1"], ["m1", "d2", "m0"]]
        out = train_skipgram(walks, g.nodes(), config, rng, init=init)
        assert set(out) == set(g.nodes())
        np.testing.assert_array_equal(out["d3"], init["d3"])
        assert not np.array_equal(out["m0"], init["m0"])

    def test_node2vec_refresh_touches_only_frontier(self):
        g = barbell_graph()
        learner = Node2Vec(dim=8, seed=1, num_walks=2, walk_length=5,
                           epochs=1)
        base = learner.embed(g)
        # d3's only neighbors are m0..m2 (no edge to m3 in the barbell),
        # so a refresh dirty on m3 leaves d3's vector carried over only
        # if d3 is outside the re-walked frontier AND no walk visits it.
        refreshed = learner.refresh(g, base, {"m3"})
        assert set(refreshed) == set(g.nodes())

    def test_refresh_empty_dirty_falls_back_to_full_embed(self):
        g = barbell_graph()
        learner = Node2Vec(dim=8, seed=1, num_walks=2, walk_length=5,
                           epochs=1)
        base = learner.embed(g)
        full = learner.embed(g)
        fallback = learner.refresh(g, base, set())
        for node in g.nodes():
            np.testing.assert_array_equal(fallback[node], full[node])


@pytest.fixture(scope="module")
def lr_config():
    return TransferGraphConfig(predictor="lr", embedding_dim=16,
                               features=FeatureSet.everything())


class TestServiceRefresh:
    def test_refresh_clean_catalog_returns_warm_pipeline(self, tiny_image_zoo,
                                                         lr_config):
        service = SelectionService(tiny_image_zoo, lr_config)
        target = tiny_image_zoo.target_names()[0]
        service.rank(target)
        fitted = service.cache_get(target).fitted
        assert service.refresh(target) is fitted
        assert service.stats()["refreshes"] == 0
        assert service.stats()["fits"] == 1

    def test_refresh_after_history_write_is_incremental(self, tiny_image_zoo,
                                                        lr_config, tmp_path,
                                                        bumped_history):
        registry = ArtifactRegistry(tmp_path)
        service = SelectionService(tiny_image_zoo, lr_config,
                                   registry=registry)
        target = tiny_image_zoo.target_names()[0]
        service.rank(target)

        with bumped_history():
            refreshed = service.refresh(target)
            stats = service.stats()
            assert stats["refreshes"] == 1
            assert stats["fits"] == 1          # no second full fit
            assert stats["invalidations"] == 0
            # the refreshed pipeline serves and was written through
            ranking = refreshed.rank(tiny_image_zoo.model_ids())
            assert len(ranking) == len(tiny_image_zoo.model_ids())
            assert registry.contains(target, service.strategy)

    def test_refresh_cold_target_falls_back_to_fit(self, tiny_image_zoo,
                                                   lr_config):
        service = SelectionService(tiny_image_zoo, lr_config)
        target = tiny_image_zoo.target_names()[0]
        service.refresh(target)
        stats = service.stats()
        assert stats["fits"] == 1
        assert stats["refreshes"] == 0
        assert stats["invalidations"] == 1

    def test_invalidate_refresh_true_delegates(self, tiny_image_zoo,
                                               lr_config, bumped_history):
        service = SelectionService(tiny_image_zoo, lr_config)
        target = tiny_image_zoo.target_names()[0]
        service.rank(target)
        with bumped_history(delta=0.02):
            service.invalidate(target, refresh=True)
            stats = service.stats()
            assert stats["refreshes"] == 1
            assert stats["fits"] == 1

    def test_refreshed_pipeline_reflects_catalog_change(self, tiny_image_zoo,
                                                        lr_config,
                                                        bumped_history):
        service = SelectionService(tiny_image_zoo, lr_config)
        target = tiny_image_zoo.target_names()[0]
        before = service.rank(target)
        with bumped_history(delta=0.05):
            refreshed = service.refresh(target)
            after = refreshed.rank(tiny_image_zoo.model_ids())
            assert {m for m, _ in after} == {m for m, _ in before}
