"""The artifact registry answers from its directory tree alone: an
artifact written by another registry is found, and one removed from
disk is forgotten, with no index to keep in step."""

import shutil

from repro.serving import ArtifactRegistry
from repro.strategies import get_strategy


class TestRegistryIndex:
    def strategy(self):
        return get_strategy("random:3")

    def save_fake(self, registry, strategy, target):
        return registry.save_packed({"k": 1}, {}, strategy, target)

    def test_index_self_heals_when_artifact_vanishes(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        strategy = self.strategy()
        path = self.save_fake(registry, strategy, "t1")
        self.save_fake(registry, strategy, "t2")
        assert registry.targets(strategy) == ["t1", "t2"]
        path.unlink()
        assert not registry.contains("t1", strategy)
        assert registry.targets(strategy) == ["t2"]

    def test_index_adopts_out_of_band_artifacts(self, tmp_path):
        writer = ArtifactRegistry(tmp_path / "writer")
        strategy = self.strategy()
        self.save_fake(writer, strategy, "t1")
        root = tmp_path / "reader"
        shutil.copytree(writer.root, root)
        files = sorted(p.relative_to(root) for p in root.rglob("*"))

        reader = ArtifactRegistry(root)
        assert reader.targets(strategy) == ["t1"]
        assert reader.contains("t1", strategy)
        assert sorted(p.relative_to(root) for p in root.rglob("*")) == files
