"""Shared fixtures.

The expensive fixture here is the session-scoped small model zoo: building
it means genuinely pre-training and fine-tuning dozens of small networks,
so tests share one build per modality.
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_image_zoo():
    """A miniature image-modality zoo shared across integration tests."""
    from repro.zoo import ZooConfig, build_zoo

    config = ZooConfig.tiny(modality="image", seed=7)
    return build_zoo(config)


@pytest.fixture(scope="session")
def tiny_text_zoo():
    """A miniature text-modality zoo shared across integration tests."""
    from repro.zoo import ZooConfig, build_zoo

    config = ZooConfig.tiny(modality="text", seed=11)
    return build_zoo(config)


@pytest.fixture()
def bumped_history(tiny_image_zoo):
    """Context manager: bump one existing source-history row, restore after.

    Mutating an *existing* row (and restoring it) keeps the
    session-scoped zoo's ground truth intact for later tests while
    still dirtying the catalog's mutation log.
    """
    from contextlib import contextmanager

    @contextmanager
    def bump(delta=0.01):
        source = next(ds for ds in tiny_image_zoo.dataset_names()
                      if tiny_image_zoo.catalog.history_for_dataset(ds))
        row = tiny_image_zoo.catalog.history_for_dataset(source)[0]
        tiny_image_zoo.catalog.record_history(
            row["model_id"], source, row["accuracy"] + delta,
            epochs=row["epochs"])
        try:
            yield source
        finally:
            tiny_image_zoo.catalog.record_history(
                row["model_id"], source, row["accuracy"],
                epochs=row["epochs"])

    return bump
