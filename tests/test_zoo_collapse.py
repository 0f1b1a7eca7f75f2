"""Tests for the hidden feature-collapse mechanism (docs/fidelity.md).

The mechanism must satisfy two contracts:
1. source accuracy is (approximately) preserved — metadata stays blind;
2. the embedding loses rank — transfer capacity genuinely shrinks.
"""

import numpy as np
import pytest

from repro.zoo import TaskUniverse, ZooModel, sample_model_specs
from repro.zoo.pretrain import PretrainConfig, apply_feature_collapse, pretrain_model


@pytest.fixture(scope="module")
def trained_model_and_dataset():
    universe = TaskUniverse("image", seed=21)
    dataset = universe.materialise("imagenet")
    spec = sample_model_specs(
        "image", 1, ["imagenet"], np.random.default_rng(3),
        source_input_dims={"imagenet": dataset.input_dim})[0]
    spec = type(spec)(**{**spec.__dict__, "feature_collapse": 0.0,
                         "pretrain_epochs": 15})
    model = ZooModel(spec)
    accuracy = pretrain_model(model, dataset, np.random.default_rng(0),
                              PretrainConfig())
    return model, dataset, accuracy


def effective_rank(features: np.ndarray) -> float:
    s = np.linalg.svd(features - features.mean(axis=0), compute_uv=False)
    p = s / s.sum()
    p = p[p > 1e-12]
    return float(np.exp(-(p * np.log(p)).sum()))


class TestFeatureCollapse:
    def test_zero_strength_is_noop(self, trained_model_and_dataset):
        model, dataset, _ = trained_model_and_dataset
        before = model.backbone.state_dict()
        apply_feature_collapse(model, dataset, 0.0, np.random.default_rng(0))
        after = model.backbone.state_dict()
        for key in before:
            assert np.allclose(before[key], after[key])

    def test_collapse_reduces_effective_rank(self, trained_model_and_dataset):
        model, dataset, _ = trained_model_and_dataset
        clone = ZooModel(model.spec)
        clone.backbone.load_state_dict(model.backbone.state_dict())
        clone.head = model.head

        rank_before = effective_rank(clone.features(dataset.x_train))
        apply_feature_collapse(clone, dataset, 1.0, np.random.default_rng(0))
        rank_after = effective_rank(clone.features(dataset.x_train))
        assert rank_after < rank_before

    def test_collapse_mostly_preserves_source_accuracy(
            self, trained_model_and_dataset):
        model, dataset, accuracy = trained_model_and_dataset
        clone = ZooModel(model.spec)
        clone.backbone.load_state_dict(model.backbone.state_dict())
        clone.head = model.new_head(dataset.num_classes,
                                    np.random.default_rng(1))
        # retrain head so the clone is a fair "published checkpoint"
        import repro.nn as nn
        opt = nn.AdamW(clone.head.parameters(), lr=5e-3)
        feats = clone.features(dataset.x_train)
        for _ in range(40):
            loss = nn.cross_entropy(clone.head(nn.Tensor(feats)),
                                    dataset.y_train)
            opt.zero_grad()
            loss.backward()
            opt.step()
        before = clone.accuracy_on(dataset.x_test, dataset.y_test)
        apply_feature_collapse(clone, dataset, 1.0, np.random.default_rng(0))
        after = clone.accuracy_on(dataset.x_test, dataset.y_test)
        # collapse keeps the class-relevant directions: the drop is small
        assert after > before - 0.15

    def test_collapse_hidden_from_catalog(self, tiny_image_zoo):
        """The catalog's model table must not expose feature_collapse."""
        row = tiny_image_zoo.catalog.models.to_records()[0]
        assert "feature_collapse" not in row
        assert "collapse" not in " ".join(row)
