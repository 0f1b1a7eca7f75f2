"""Robustness tests for the zoo disk cache (failure injection)."""

import json

import numpy as np
import pytest

from repro.zoo import (ZooConfig, build_zoo, get_or_build_zoo, load_zoo,
                       save_zoo, zoo_cache_key)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    config = ZooConfig.tiny(modality="image", seed=31, num_models=2,
                            num_targets=2, num_sources=2)
    zoo = build_zoo(config)
    root = tmp_path_factory.mktemp("zoo_cache")
    save_zoo(zoo, root)
    return config, zoo, root


class TestCacheRobustness:
    def test_missing_file_returns_none(self, saved):
        config, _, root = saved
        weights = root / zoo_cache_key(config) / "weights.npz"
        backup = weights.read_bytes()
        weights.unlink()
        try:
            assert load_zoo(config, root) is None
        finally:
            weights.write_bytes(backup)

    def test_loaded_catalog_matches(self, saved):
        config, zoo, root = saved
        loaded = load_zoo(config, root)
        assert loaded is not None
        assert loaded.catalog.stats() == zoo.catalog.stats()

    def test_different_config_is_cache_miss(self, saved):
        config, _, root = saved
        other = ZooConfig.tiny(modality="image", seed=32, num_models=2,
                               num_targets=2, num_sources=2)
        assert load_zoo(other, root) is None

    def test_config_json_readable(self, saved):
        config, _, root = saved
        payload = json.loads(
            (root / zoo_cache_key(config) / "config.json").read_text())
        assert payload["seed"] == 31
        assert payload["modality"] == "image"

    def test_save_is_idempotent(self, saved):
        config, zoo, root = saved
        save_zoo(zoo, root)  # overwrite in place
        loaded = load_zoo(config, root)
        assert np.allclose(loaded.accuracy_matrix(), zoo.accuracy_matrix())

    @pytest.mark.parametrize("name", ["catalog.json", "specs.json",
                                      "weights.npz"])
    def test_torn_file_rebuilds_instead_of_raising(self, saved, name):
        """A writer killed mid-save leaves half a file: the reader must
        treat it as a miss and rebuild the same zoo."""
        config, zoo, root = saved
        path = root / zoo_cache_key(config) / name
        whole = path.read_bytes()
        path.write_bytes(whole[:len(whole) // 2])
        try:
            assert load_zoo(config, root) is None
            rebuilt = get_or_build_zoo(config, root)
            assert np.array_equal(rebuilt.accuracy_matrix(),
                                  zoo.accuracy_matrix())
            assert load_zoo(config, root) is not None  # healed on disk
        finally:
            path.write_bytes(whole)

    def test_save_leaves_no_hidden_siblings(self, saved):
        config, zoo, root = saved
        save_zoo(zoo, root)
        names = sorted(p.name for p in (root / zoo_cache_key(config)).iterdir())
        assert names == ["catalog.json", "config.json", "specs.json",
                         "weights.npz"]
