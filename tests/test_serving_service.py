"""SelectionService: cache accounting, invalidation, rank correctness."""

import numpy as np
import pytest

from repro.core import FeatureSet, TransferGraphConfig
from repro.serving import (
    ArtifactRegistry,
    SelectionService,
    WorkloadConfig,
    generate_workload,
    replay,
)
from repro.strategies import TransferGraphStrategy


@pytest.fixture(scope="module")
def lr_config():
    return TransferGraphConfig(predictor="lr", embedding_dim=16,
                               features=FeatureSet.everything())


class TestCacheAccounting:
    def test_hit_miss_counters(self, tiny_image_zoo, lr_config):
        service = SelectionService(tiny_image_zoo, lr_config)
        target = tiny_image_zoo.target_names()[0]
        service.rank(target)
        service.rank(target)
        service.rank(target)
        stats = service.stats()
        assert stats["queries"] == 3
        assert stats["cache_misses"] == 1
        assert stats["cache_hits"] == 2
        assert stats["fits"] == 1
        assert stats["registry_hits"] == 0
        assert stats["hit_rate"] == pytest.approx(2 / 3)
        assert service._stats.latencies_ms.count == 3

    def test_lru_eviction(self, tiny_image_zoo, lr_config):
        service = SelectionService(tiny_image_zoo, lr_config, cache_size=1)
        t1, t2 = tiny_image_zoo.target_names()[:2]
        service.rank(t1)
        service.rank(t2)   # evicts t1
        service.rank(t1)   # refits t1
        stats = service.stats()
        assert stats["fits"] == 3
        assert stats["evictions"] == 2

    def test_unknown_target_raises(self, tiny_image_zoo, lr_config):
        service = SelectionService(tiny_image_zoo, lr_config)
        with pytest.raises(KeyError):
            service.rank("not_a_dataset")

    def test_rejects_empty_cache(self, tiny_image_zoo, lr_config):
        with pytest.raises(ValueError):
            SelectionService(tiny_image_zoo, lr_config, cache_size=0)


class TestRankCorrectness:
    def test_rank_matches_fresh_strategy(self, tiny_image_zoo, lr_config):
        target = tiny_image_zoo.target_names()[0]
        service = SelectionService(tiny_image_zoo, lr_config)
        served = service.rank(target)
        fresh = TransferGraphStrategy(lr_config).rank(tiny_image_zoo, target)
        assert [m for m, _ in served] == [m for m, _ in fresh]
        assert [s for _, s in served] == pytest.approx(
            [s for _, s in fresh], rel=1e-12)

    def test_top_k_truncates(self, tiny_image_zoo, lr_config):
        target = tiny_image_zoo.target_names()[0]
        service = SelectionService(tiny_image_zoo, lr_config)
        full = service.rank(target)
        assert service.rank(target, top_k=2) == full[:2]

    def test_score_batch_matches_rank_scores(self, tiny_image_zoo, lr_config):
        service = SelectionService(tiny_image_zoo, lr_config)
        t1, t2 = tiny_image_zoo.target_names()[:2]
        models = tiny_image_zoo.model_ids()
        pairs = [(models[0], t1), (models[1], t2), (models[2], t1)]
        scores = service.score_batch(pairs)
        assert scores.shape == (3,)
        by_target = {t1: dict(service.rank(t1)), t2: dict(service.rank(t2))}
        for (model, target), score in zip(pairs, scores):
            # exact: both answers read one stored score
            assert score == by_target[target][model]

    def test_score_batch_empty(self, tiny_image_zoo, lr_config):
        service = SelectionService(tiny_image_zoo, lr_config)
        assert service.score_batch([]).shape == (0,)


class TestInvalidation:
    def test_invalidate_forces_refit(self, tiny_image_zoo, lr_config,
                                     tmp_path):
        registry = ArtifactRegistry(tmp_path)
        service = SelectionService(tiny_image_zoo, lr_config,
                                   registry=registry)
        target = tiny_image_zoo.target_names()[0]
        before = service.rank(target)
        assert registry.contains(target, lr_config)

        service.invalidate(target)
        assert not registry.contains(target, lr_config)

        after = service.rank(target)
        stats = service.stats()
        assert stats["fits"] == 2          # the refit really happened
        assert stats["registry_hits"] == 0
        assert stats["invalidations"] == 1
        assert [m for m, _ in after] == [m for m, _ in before]


class TestCorruptArtifacts:
    def test_service_refits_over_corrupt_artifact(self, tiny_image_zoo,
                                                  lr_config, tmp_path):
        """A broken on-disk artifact degrades to a refit, never a crash."""
        registry = ArtifactRegistry(tmp_path)
        target = tiny_image_zoo.target_names()[0]
        first = SelectionService(tiny_image_zoo, lr_config, registry=registry)
        served = first.rank(target)

        path = registry.path_for(target, lr_config)
        path.write_bytes(path.read_bytes()[:40])

        second = SelectionService(tiny_image_zoo, lr_config,
                                  registry=registry)
        revived = second.rank(target)
        stats = second.stats()
        assert stats["fits"] == 1
        assert stats["registry_hits"] == 0
        assert [m for m, _ in revived] == [m for m, _ in served]
        # The write-through repaired the artifact on disk.
        registry.load(target, lr_config, tiny_image_zoo)


class TestRegistryWarmStart:
    def test_second_service_avoids_refitting(self, tiny_image_zoo, lr_config,
                                             tmp_path):
        registry = ArtifactRegistry(tmp_path)
        target = tiny_image_zoo.target_names()[0]

        first = SelectionService(tiny_image_zoo, lr_config, registry=registry)
        served = first.rank(target)
        assert first.stats()["fits"] == 1

        second = SelectionService(tiny_image_zoo, lr_config,
                                  registry=registry)
        revived = second.rank(target)
        stats = second.stats()
        assert stats["fits"] == 0
        assert stats["registry_hits"] == 1
        assert [m for m, _ in revived] == [m for m, _ in served]
        assert np.array_equal([s for _, s in revived], [s for _, s in served])

    def test_warmup_prefits_all_targets(self, tiny_image_zoo, lr_config,
                                        tmp_path):
        registry = ArtifactRegistry(tmp_path)
        service = SelectionService(tiny_image_zoo, lr_config,
                                   registry=registry)
        timings = service.warmup()
        targets = tiny_image_zoo.target_names()
        assert sorted(timings) == targets
        assert registry.targets(lr_config) == targets
        assert service.stats()["queries"] == 0  # warmup is not traffic

        service.rank(targets[0])
        stats = service.stats()
        assert stats["fits"] == len(targets)
        assert stats["cache_hits"] == 1


class TestWorkload:
    def test_generate_is_reproducible(self, tiny_image_zoo):
        config = WorkloadConfig(num_queries=50, seed=13)
        a = generate_workload(tiny_image_zoo, config)
        b = generate_workload(tiny_image_zoo, config)
        assert a == b
        assert len(a) == 50
        kinds = {q.kind for q in a}
        assert kinds <= {"rank", "score_batch"}

    def test_replay_reports_only_its_own_traffic(self, tiny_image_zoo,
                                                 lr_config):
        """Warmup fits must not deflate the replayed workload's stats."""
        service = SelectionService(tiny_image_zoo, lr_config)
        service.warmup()
        workload = generate_workload(
            tiny_image_zoo, WorkloadConfig(num_queries=20, seed=9))
        summary = replay(service, workload)
        assert summary["queries"] == 20
        assert summary["fits"] == 0
        assert summary["cache_misses"] == 0
        assert summary["hit_rate"] == 1.0

    def test_replay_reports_hit_rate(self, tiny_image_zoo, lr_config):
        service = SelectionService(tiny_image_zoo, lr_config)
        workload = generate_workload(
            tiny_image_zoo, WorkloadConfig(num_queries=30, seed=5))
        summary = replay(service, workload)
        assert summary["queries"] == 30
        assert summary["fits"] <= len(tiny_image_zoo.target_names())
        assert summary["hit_rate"] > 0.5
        assert summary["qps"] > 0
        assert summary["p95_ms"] >= summary["p50_ms"]
