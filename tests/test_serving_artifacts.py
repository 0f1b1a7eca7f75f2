"""Artifact round-trips: predictor states, registry save/load, staleness."""

import gc
import json
import os
import shutil
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import FeatureSet, TransferGraph, TransferGraphConfig
from repro.predictors import PREDICTORS, get_predictor
from repro.serving import (
    ArtifactNotFoundError,
    ArtifactRegistry,
    StaleArtifactError,
    catalog_fingerprint,
    config_fingerprint,
    config_from_dict,
)
from repro.strategies import FittedScoreTable, SelectionStrategy, resolve_strategy
from repro.strategies.artifacts import _pack_value, _unpack_value

SMALL_HYPERPARAMS = {
    "lr": {},
    "tree": {"max_depth": 4},
    "rf": {"n_estimators": 8},
    "xgb": {"n_estimators": 20},
}


def regression_data(n=80, d=6, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = x @ rng.normal(size=d) + 0.1 * rng.normal(size=n)
    return x, y


def roundtrip_through_files(state: dict, tmp_path) -> dict:
    """Serialise a state dict exactly the way the registry does."""
    arrays: dict[str, np.ndarray] = {}
    meta = _pack_value(state, arrays, "state")
    (tmp_path / "meta.json").write_text(json.dumps(meta, sort_keys=True))
    np.savez_compressed(tmp_path / "arrays.npz", **arrays)
    loaded_meta = json.loads((tmp_path / "meta.json").read_text())
    with np.load(tmp_path / "arrays.npz") as npz:
        loaded_arrays = {key: npz[key] for key in npz.files}
    return _unpack_value(loaded_meta, loaded_arrays)


class TestPredictorStateRoundTrip:
    @pytest.mark.parametrize("alias", sorted(PREDICTORS))
    def test_save_load_predict_bit_identical(self, alias, tmp_path):
        x, y = regression_data()
        model = get_predictor(alias, **SMALL_HYPERPARAMS[alias]).fit(x, y)
        state = roundtrip_through_files(model.get_state(), tmp_path)
        revived = get_predictor(alias).set_state(state)
        assert np.array_equal(model.predict(x), revived.predict(x))

    @pytest.mark.parametrize("alias", sorted(PREDICTORS))
    def test_get_state_requires_fit(self, alias):
        with pytest.raises(RuntimeError):
            get_predictor(alias).get_state()


@pytest.fixture(scope="module")
def lr_config():
    return TransferGraphConfig(predictor="lr", embedding_dim=16,
                               features=FeatureSet.everything())


class TestRegistryRoundTrip:
    @pytest.mark.parametrize("alias", sorted(PREDICTORS))
    def test_rankings_identical_after_reload(self, alias, tiny_image_zoo,
                                             tmp_path):
        zoo = tiny_image_zoo
        config = TransferGraphConfig(predictor=alias, embedding_dim=16,
                                     features=FeatureSet.everything())
        target = zoo.target_names()[0]
        fitted = TransferGraph(config).fit(zoo, target)

        registry = ArtifactRegistry(tmp_path)
        registry.save(fitted, config, zoo)
        revived = registry.load(target, config, zoo)

        ids = zoo.model_ids()
        assert np.array_equal(fitted.predict(ids), revived.predict(ids))
        assert fitted.rank(ids) == revived.rank(ids)
        assert revived.feature_names == fitted.feature_names
        assert revived.graph_stats == fitted.graph_stats

    def test_contains_and_targets(self, tiny_image_zoo, tmp_path, lr_config):
        zoo = tiny_image_zoo
        target = zoo.target_names()[1]
        registry = ArtifactRegistry(tmp_path)
        assert not registry.contains(target, lr_config)
        assert registry.targets(lr_config) == []
        fitted = TransferGraph(lr_config).fit(zoo, target)
        registry.save(fitted, lr_config, zoo)
        assert registry.contains(target, lr_config)
        assert registry.targets(lr_config) == [target]
        assert registry.delete(target, lr_config)
        assert not registry.contains(target, lr_config)

    def test_missing_artifact_raises(self, tiny_image_zoo, tmp_path,
                                     lr_config):
        registry = ArtifactRegistry(tmp_path)
        with pytest.raises(ArtifactNotFoundError):
            registry.load("caltech101", lr_config, tiny_image_zoo)

    def test_catalog_mismatch_raises(self, tiny_image_zoo, tmp_path,
                                     lr_config):
        zoo = tiny_image_zoo
        target = zoo.target_names()[0]
        fitted = TransferGraph(lr_config).fit(zoo, target)
        registry = ArtifactRegistry(tmp_path)
        registry.save(fitted, lr_config, zoo)

        model_id = zoo.model_ids()[0]
        row = zoo.catalog.history.get_or_none(model_id, target, "finetune")
        zoo.catalog.record_history(model_id, target, row["accuracy"] + 0.01,
                                   epochs=row["epochs"])
        try:
            with pytest.raises(StaleArtifactError):
                registry.load(target, lr_config, zoo)
        finally:
            zoo.catalog.record_history(model_id, target, row["accuracy"],
                                       epochs=row["epochs"])
        # Ground truth restored: the artifact is fresh again.
        registry.load(target, lr_config, zoo)

    def test_format_version_mismatch_raises(self, tiny_image_zoo, tmp_path,
                                            lr_config):
        zoo = tiny_image_zoo
        target = zoo.target_names()[0]
        fitted = TransferGraph(lr_config).fit(zoo, target)
        registry = ArtifactRegistry(tmp_path)
        path = registry.save(fitted, lr_config, zoo)

        meta = json.loads((path / "meta.json").read_text())
        meta["format_version"] = 0
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(StaleArtifactError):
            registry.load(target, lr_config, zoo)

    def test_corrupt_meta_raises_artifact_error(self, tiny_image_zoo,
                                                tmp_path, lr_config):
        from repro.serving import ArtifactError

        zoo = tiny_image_zoo
        target = zoo.target_names()[0]
        fitted = TransferGraph(lr_config).fit(zoo, target)
        registry = ArtifactRegistry(tmp_path)
        path = registry.save(fitted, lr_config, zoo)

        (path / "meta.json").write_text('{"format_version": 1, "trunc')
        with pytest.raises(ArtifactError):
            registry.load(target, lr_config, zoo)

    def test_missing_arrays_raises_artifact_error(self, tiny_image_zoo,
                                                  tmp_path, lr_config):
        from repro.serving import ArtifactError

        zoo = tiny_image_zoo
        target = zoo.target_names()[0]
        fitted = TransferGraph(lr_config).fit(zoo, target)
        registry = ArtifactRegistry(tmp_path)
        path = registry.save(fitted, lr_config, zoo)

        (path / "arrays.npz").unlink()
        with pytest.raises(ArtifactError):
            registry.load(target, lr_config, zoo)

    def test_config_mismatch_is_not_found(self, tiny_image_zoo, tmp_path,
                                          lr_config):
        """A different config lives in a different registry namespace."""
        zoo = tiny_image_zoo
        target = zoo.target_names()[0]
        fitted = TransferGraph(lr_config).fit(zoo, target)
        registry = ArtifactRegistry(tmp_path)
        registry.save(fitted, lr_config, zoo)
        other = TransferGraphConfig(predictor="rf", embedding_dim=16,
                                    features=FeatureSet.everything())
        with pytest.raises(ArtifactNotFoundError):
            registry.load(target, other, zoo)


class TestCopiedInArtifacts:
    """The registry is its directory tree: artifact directories copied in
    from another root (how a pre-fitted template seeds a fresh shard)
    are adopted as they are, serving them writes nothing, and one
    removed behind the registry's back is gone at once."""

    def test_fresh_registry_serves_copied_artifacts(self, tiny_image_zoo,
                                                    tmp_path, lr_config):
        zoo = tiny_image_zoo
        strategies = [resolve_strategy(lr_config), resolve_strategy("logme")]
        targets = zoo.target_names()[:2]
        staging = ArtifactRegistry(tmp_path / "staging")
        fitted = {}
        for strategy in strategies:
            for target in targets:
                fitted[strategy, target] = strategy.fit(zoo, target)
                staging.save(fitted[strategy, target], strategy, zoo)
        root = tmp_path / "shard"
        for namespace in staging.root.iterdir():
            if namespace.is_dir():
                shutil.copytree(namespace, root / namespace.name)
        files = sorted(p.relative_to(root) for p in root.rglob("*"))

        registry = ArtifactRegistry(root)
        ids = zoo.model_ids()
        missing = zoo.target_names()[2]
        for strategy in strategies:
            assert registry.targets(strategy) == sorted(targets)
            for target in targets:
                assert registry.contains(target, strategy)
                revived = registry.load(target, strategy, zoo)
                assert revived.rank(ids) == fitted[strategy, target].rank(ids)
            assert not registry.contains(missing, strategy)
            with pytest.raises(ArtifactNotFoundError):
                registry.load(missing, strategy, zoo)
        report = registry.gc(strategies, zoo, dry_run=True)
        assert report == {"namespaces_removed": 0, "artifacts_removed": 0,
                          "artifacts_kept": 4, "bytes_reclaimed": 0}
        assert sorted(p.relative_to(root) for p in root.rglob("*")) == files

        shutil.rmtree(registry.path_for(targets[0], strategies[0]))
        assert not registry.contains(targets[0], strategies[0])
        assert targets[0] not in registry.targets(strategies[0])


class TestFingerprints:
    def test_config_fingerprint_stable_and_discriminating(self):
        a = TransferGraphConfig(predictor="lr")
        b = TransferGraphConfig(predictor="lr")
        c = TransferGraphConfig(predictor="rf")
        assert config_fingerprint(a) == config_fingerprint(b)
        assert config_fingerprint(a) != config_fingerprint(c)

    def test_config_round_trips_through_dict(self):
        from dataclasses import asdict

        config = TransferGraphConfig(predictor="rf", embedding_dim=16,
                                     features=FeatureSet.all_logme())
        revived = config_from_dict(asdict(config))
        assert revived == config
        assert config_fingerprint(revived) == config_fingerprint(config)

    def test_catalog_fingerprint_ignores_derived_tables(self, tiny_image_zoo):
        catalog = tiny_image_zoo.catalog
        before = catalog_fingerprint(catalog)
        catalog.record_transferability("some-model", "some-dataset",
                                       "logme", 0.5)
        try:
            assert catalog_fingerprint(catalog) == before
        finally:
            catalog.transferability.delete("some-model", "some-dataset",
                                           "logme")

    def test_catalog_fingerprint_tracks_ground_truth(self, tiny_image_zoo):
        catalog = tiny_image_zoo.catalog
        before = catalog_fingerprint(catalog)
        model_id = tiny_image_zoo.model_ids()[0]
        target = tiny_image_zoo.target_names()[0]
        row = catalog.history.get_or_none(model_id, target, "finetune")
        catalog.record_history(model_id, target, row["accuracy"] + 0.01,
                               epochs=row["epochs"])
        try:
            assert catalog_fingerprint(catalog) != before
        finally:
            catalog.record_history(model_id, target, row["accuracy"],
                                   epochs=row["epochs"])
        assert catalog_fingerprint(catalog) == before


class TestStoredGraph:
    """TG artifacts ship the pruned LOO graph: revival must not rebuild."""

    def test_meta_contains_graph_and_load_skips_rebuild(self, tiny_image_zoo,
                                                        tmp_path,
                                                        monkeypatch,
                                                        lr_config):
        zoo = tiny_image_zoo
        target = zoo.target_names()[0]
        fitted = TransferGraph(lr_config).fit(zoo, target)
        registry = ArtifactRegistry(tmp_path)
        path = registry.save(fitted, lr_config, zoo)

        meta = json.loads((path / "meta.json").read_text())
        assert meta["graph"]["nodes"]
        assert len(meta["graph"]["edges"]) > 0

        from repro.graph.builder import GraphBuilder

        def forbidden_build(self, exclude_target=None):
            raise AssertionError("registry-warm load rebuilt the LOO graph")

        monkeypatch.setattr(GraphBuilder, "build", forbidden_build)
        revived = registry.load(target, lr_config, zoo)
        ids = zoo.model_ids()
        assert np.array_equal(fitted.predict(ids), revived.predict(ids))

    def test_revived_graph_matches_the_fitted_one(self, tiny_image_zoo,
                                                  tmp_path, lr_config):
        zoo = tiny_image_zoo
        target = zoo.target_names()[1]
        fitted = TransferGraph(lr_config).fit(zoo, target)
        registry = ArtifactRegistry(tmp_path)
        registry.save(fitted, lr_config, zoo)
        revived = registry.load(target, lr_config, zoo)

        original, reconstructed = fitted.assembler.graph, \
            revived.assembler.graph
        assert reconstructed.nodes() == original.nodes()
        assert reconstructed.num_edges == original.num_edges
        assert sorted((e.u, e.v, e.kind, e.weight)
                      for e in reconstructed.edges()) == \
            sorted((e.u, e.v, e.kind, e.weight) for e in original.edges())

    def test_legacy_artifact_without_graph_still_loads(self, tiny_image_zoo,
                                                       tmp_path, lr_config):
        """Artifacts written before the graph was stored fall back to
        the deterministic catalog rebuild."""
        zoo = tiny_image_zoo
        target = zoo.target_names()[0]
        fitted = TransferGraph(lr_config).fit(zoo, target)
        registry = ArtifactRegistry(tmp_path)
        path = registry.save(fitted, lr_config, zoo)

        meta = json.loads((path / "meta.json").read_text())
        del meta["graph"]
        (path / "meta.json").write_text(json.dumps(meta, sort_keys=True))

        revived = registry.load(target, lr_config, zoo)
        ids = zoo.model_ids()
        assert np.array_equal(fitted.predict(ids), revived.predict(ids))

    def test_corrupt_graph_payload_degrades_to_artifact_error(
            self, tiny_image_zoo, tmp_path, lr_config):
        from repro.serving import ArtifactError

        zoo = tiny_image_zoo
        target = zoo.target_names()[0]
        fitted = TransferGraph(lr_config).fit(zoo, target)
        registry = ArtifactRegistry(tmp_path)
        path = registry.save(fitted, lr_config, zoo)

        meta = json.loads((path / "meta.json").read_text())
        meta["graph"]["edges"] = meta["graph"]["edges"][:1]  # length lies
        (path / "meta.json").write_text(json.dumps(meta, sort_keys=True))
        with pytest.raises(ArtifactError):
            registry.load(target, lr_config, zoo)


class _ArrayStrategy(SelectionStrategy):
    """Packs a fixed set of arrays; ``unpack`` hands them back as read."""

    spec = name = "arrays"

    def __init__(self, arrays):
        self.arrays = arrays

    def fingerprint(self):
        return "arrays-stress"

    def pack(self, fitted, zoo):
        return {"target": fitted.target}, dict(self.arrays)

    def unpack(self, meta, arrays, zoo):
        return arrays


class _Cycle:
    """Cyclic garbage whose finalizer runs Python code during a collection."""

    def __init__(self):
        self.me = self

    def __del__(self):
        sum(range(8))


class TestConcurrentLoads:
    def test_threaded_loads_all_succeed_with_identical_arrays(self, tmp_path):
        """Regression: numpy parses each npz member header with
        ``ast.literal_eval``, which on CPython 3.11 could raise
        ``SystemError: AST constructor recursion depth mismatch`` when
        fit threads of several routers revived at once (an HTTP 500).
        The race needs a thread switch inside the AST conversion, which
        a garbage collection running Python finalizers provides.  More
        threads than cores, a short switch interval, frequent
        collections of finalizable cycles, many members per artifact:
        every load must succeed and read the same bytes."""
        rng = np.random.default_rng(0)
        arrays = {
            f"a{i}": rng.normal(size=(i % 5 + 1, 3)).astype(
                ("<f8", "<f4", "<i8")[i % 3])
            for i in range(24)
        }
        strategy = _ArrayStrategy(arrays)
        registries = [ArtifactRegistry(tmp_path / f"shard{i}") for i in range(3)]
        for registry in registries:
            registry.save(FittedScoreTable("t0", {}), strategy, zoo=None)

        threads = 4 * (os.cpu_count() or 1) + 2
        deadline = time.monotonic() + 1.5
        errors: list[BaseException] = []
        loads = [0] * threads

        def hammer(worker: int) -> None:
            registry = registries[worker % len(registries)]
            try:
                while time.monotonic() < deadline:
                    for _ in range(4):
                        _Cycle()
                    loaded = registry.load("t0", strategy, zoo=None)
                    assert loaded.keys() == arrays.keys()
                    for key, expected in arrays.items():
                        assert loaded[key].dtype == expected.dtype
                        assert np.array_equal(loaded[key], expected)
                    loads[worker] += 1
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval, thresholds = sys.getswitchinterval(), gc.get_threshold()
        sys.setswitchinterval(1e-6)
        gc.set_threshold(50, 5, 5)
        try:
            workers = [threading.Thread(target=hammer, args=(i,))
                       for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(interval)
            gc.set_threshold(*thresholds)
        assert errors == []
        assert all(count > 0 for count in loads)
