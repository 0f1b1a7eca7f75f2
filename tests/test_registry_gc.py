"""ArtifactRegistry.gc: live artifacts stay, everything else goes."""

from __future__ import annotations

import pytest

from repro.core import FeatureSet, TransferGraphConfig
from repro.serving import ArtifactRegistry, SelectionService
from repro.strategies.fingerprint import config_fingerprint

from serving_stubs import rewrite_artifact


@pytest.fixture(scope="module")
def live_config():
    return TransferGraphConfig(predictor="lr", embedding_dim=16,
                               features=FeatureSet.everything())


@pytest.fixture(scope="module")
def dead_config():
    return TransferGraphConfig(predictor="lr", embedding_dim=16,
                               features=FeatureSet.everything(), seed=99)


def _foreign_catalog(meta, _):
    meta["catalog_fingerprint"] = "0" * 20


def _populate(registry, zoo, config, n_targets=1):
    service = SelectionService(zoo, config, registry=registry)
    targets = zoo.target_names()[:n_targets]
    service.warmup(targets)
    return targets


class TestRegistryGC:
    def test_dead_namespace_swept_live_kept(self, tiny_image_zoo, tmp_path,
                                            live_config, dead_config):
        registry = ArtifactRegistry(tmp_path)
        live_targets = _populate(registry, tiny_image_zoo, live_config, 2)
        _populate(registry, tiny_image_zoo, dead_config, 1)

        report = registry.gc([live_config], tiny_image_zoo)
        assert report["namespaces_removed"] == 1
        assert report["artifacts_removed"] == 1
        assert report["artifacts_kept"] == 2
        assert report["bytes_reclaimed"] > 0

        assert registry.targets(live_config) == sorted(live_targets)
        assert registry.targets(dead_config) == []
        # Survivors still load.
        registry.load(live_targets[0], live_config, tiny_image_zoo)

    def test_stale_catalog_artifact_removed(self, tiny_image_zoo, tmp_path,
                                            live_config):
        registry = ArtifactRegistry(tmp_path)
        t1, t2 = _populate(registry, tiny_image_zoo, live_config, 2)

        rewrite_artifact(registry, t1, live_config, _foreign_catalog)

        report = registry.gc([live_config], tiny_image_zoo)
        assert report["artifacts_removed"] == 1
        assert report["artifacts_kept"] == 1
        assert registry.targets(live_config) == [t2]

    def test_without_zoo_catalog_staleness_is_not_checked(
            self, tiny_image_zoo, tmp_path, live_config):
        """gc(configs) alone only sweeps dead namespaces/partials."""
        registry = ArtifactRegistry(tmp_path)
        (t1,) = _populate(registry, tiny_image_zoo, live_config, 1)

        rewrite_artifact(registry, t1, live_config, _foreign_catalog)

        report = registry.gc([live_config])
        assert report["artifacts_removed"] == 0
        assert report["artifacts_kept"] == 1

    def test_partial_artifact_directory_removed(self, tiny_image_zoo,
                                                tmp_path, live_config):
        registry = ArtifactRegistry(tmp_path)
        namespace = tmp_path / config_fingerprint(live_config)
        partial = namespace / "half_written"
        partial.mkdir(parents=True)
        (partial / "arrays.npz").write_bytes(b"not finished")

        report = registry.gc([live_config], tiny_image_zoo)
        assert report["artifacts_removed"] == 1
        assert not partial.exists()

    def test_unreadable_meta_counts_as_stale(self, tiny_image_zoo, tmp_path,
                                             live_config):
        registry = ArtifactRegistry(tmp_path)
        (t1,) = _populate(registry, tiny_image_zoo, live_config, 1)
        path = registry.path_for(t1, live_config)
        path.write_bytes(path.read_bytes()[:40])

        report = registry.gc([live_config], tiny_image_zoo)
        assert report["artifacts_removed"] == 1
        assert registry.targets(live_config) == []

    def test_dry_run_touches_nothing(self, tiny_image_zoo, tmp_path,
                                     live_config, dead_config):
        registry = ArtifactRegistry(tmp_path)
        _populate(registry, tiny_image_zoo, live_config, 1)
        _populate(registry, tiny_image_zoo, dead_config, 1)

        dry = registry.gc([live_config], tiny_image_zoo, dry_run=True)
        assert dry["namespaces_removed"] == 1
        assert dry["bytes_reclaimed"] > 0
        # Nothing actually deleted:
        assert registry.targets(dead_config) != []

        wet = registry.gc([live_config], tiny_image_zoo)
        assert wet["bytes_reclaimed"] == dry["bytes_reclaimed"]
        assert registry.targets(dead_config) == []

    def test_missing_root_is_a_noop(self, tmp_path, live_config):
        registry = ArtifactRegistry(tmp_path / "never_created")
        report = registry.gc([live_config])
        assert report == {"namespaces_removed": 0, "artifacts_removed": 0,
                          "artifacts_kept": 0, "bytes_reclaimed": 0}


class TestGatewayLayoutGC:
    """layout='namespaces' sweeps <root>/<namespace>/<fp>/<target>."""

    def _populate_shard(self, root, ns, zoo, config, n_targets=1):
        return _populate(ArtifactRegistry(root / ns), zoo, config, n_targets)

    def test_sweeps_inside_every_namespace_shard(self, tiny_image_zoo,
                                                 tmp_path, live_config,
                                                 dead_config):
        root = tmp_path / "shards"
        live_targets = self._populate_shard(root, "image", tiny_image_zoo,
                                            live_config, 2)
        self._populate_shard(root, "image", tiny_image_zoo, dead_config, 1)
        self._populate_shard(root, "text", tiny_image_zoo, dead_config, 1)

        report = ArtifactRegistry(root).gc([live_config], tiny_image_zoo,
                                           layout="namespaces")
        assert report["namespaces_removed"] == 2   # dead fp in both shards
        assert report["artifacts_removed"] == 2
        assert report["artifacts_kept"] == 2
        assert report["bytes_reclaimed"] > 0

        image = ArtifactRegistry(root / "image")
        assert image.targets(live_config) == sorted(live_targets)
        assert image.targets(dead_config) == []
        image.load(live_targets[0], live_config, tiny_image_zoo)

    def test_namespace_directories_survive_even_when_emptied(
            self, tiny_image_zoo, tmp_path, dead_config):
        """Shard dirs are operator-named slugs, never fingerprint-matched."""
        root = tmp_path / "shards"
        self._populate_shard(root, "only-dead", tiny_image_zoo, dead_config)
        report = ArtifactRegistry(root).gc([], tiny_image_zoo,
                                           layout="namespaces")
        assert report["namespaces_removed"] == 1
        assert (root / "only-dead").is_dir()

    def test_flat_gc_would_wrongly_kill_shards_hence_the_layout_flag(
            self, tiny_image_zoo, tmp_path, live_config):
        """The motivating bug: a flat sweep sees namespace slugs as dead
        fingerprint dirs.  The namespaces layout keeps them."""
        root = tmp_path / "shards"
        self._populate_shard(root, "image", tiny_image_zoo, live_config)

        dry_flat = ArtifactRegistry(root).gc([live_config], tiny_image_zoo,
                                             dry_run=True)
        assert dry_flat["namespaces_removed"] == 1  # would destroy the shard

        sharded = ArtifactRegistry(root).gc([live_config], tiny_image_zoo,
                                            layout="namespaces")
        assert sharded["namespaces_removed"] == 0
        assert sharded["artifacts_kept"] == 1

    def test_dry_run_touches_nothing(self, tiny_image_zoo, tmp_path,
                                     dead_config):
        root = tmp_path / "shards"
        self._populate_shard(root, "image", tiny_image_zoo, dead_config)
        report = ArtifactRegistry(root).gc([], tiny_image_zoo, dry_run=True,
                                           layout="namespaces")
        assert report["namespaces_removed"] == 1
        assert ArtifactRegistry(root / "image").targets(dead_config) != []

    def test_rejects_unknown_layout(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactRegistry(tmp_path).gc([], layout="nested")

    def test_live_set_accepts_strategies_and_specs(self, tiny_image_zoo,
                                                   tmp_path):
        """gc's live set speaks the strategy API, not just configs."""
        from repro.strategies import get_strategy

        registry = ArtifactRegistry(tmp_path)
        logme = get_strategy("logme")
        target = tiny_image_zoo.target_names()[0]
        registry.save(logme.fit(tiny_image_zoo, target), logme,
                      tiny_image_zoo)
        report = registry.gc(["logme"], tiny_image_zoo)
        assert report == {"namespaces_removed": 0, "artifacts_removed": 0,
                          "artifacts_kept": 1, "bytes_reclaimed": 0}
        swept = registry.gc(["leep"], tiny_image_zoo)
        assert swept["namespaces_removed"] == 1
        assert registry.targets(logme) == []
