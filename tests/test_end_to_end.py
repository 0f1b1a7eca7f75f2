"""End-to-end smoke tests across modalities and failure-injection checks."""

import numpy as np
import pytest

from repro.core import TransferGraphConfig, evaluate_strategy
from repro.graph import GraphConfig
from repro.strategies import (
    RandomStrategy,
    TransferabilityStrategy,
    TransferGraphStrategy,
)


def tg(**overrides):
    """``tg:lr,n2v,all`` at a small embedding dimension."""
    return TransferGraphStrategy(TransferGraphConfig(
        **{"embedding_dim": 8, **overrides}))


class TestTextModality:
    def test_full_pipeline_on_text(self, tiny_text_zoo):
        ev = evaluate_strategy(tg(), tiny_text_zoo)
        assert set(ev.results) == set(tiny_text_zoo.target_names())
        assert np.isfinite(ev.average_correlation())

    def test_logme_on_text(self, tiny_text_zoo):
        ev = evaluate_strategy(TransferabilityStrategy("logme"), tiny_text_zoo)
        assert np.isfinite(ev.average_correlation())

    def test_lora_ground_truth_evaluation(self, tiny_text_zoo):
        tiny_text_zoo.ensure_lora_history()
        ev = evaluate_strategy(RandomStrategy(), tiny_text_zoo,
                               ground_truth_method="lora")
        assert set(ev.results) == set(tiny_text_zoo.target_names())


class TestNoHistoryScenario:
    def test_cold_start_pipeline(self, tiny_image_zoo):
        config = GraphConfig(use_accuracy_edges=False,
                             include_pretrain_edges=False)
        strategy = tg(graph=config)
        ev = evaluate_strategy(strategy, tiny_image_zoo)
        assert np.isfinite(ev.average_correlation())

    def test_history_ratio_pipeline(self, tiny_image_zoo):
        strategy = tg(graph=GraphConfig(history_ratio=0.5))
        ev = evaluate_strategy(strategy, tiny_image_zoo)
        assert np.isfinite(ev.average_correlation())


class TestFailureInjection:
    def test_strategy_missing_model_detected(self, tiny_image_zoo):
        class BrokenStrategy:
            name = "broken"

            def scores_for_target(self, zoo, target):
                scores = RandomStrategy().scores_for_target(zoo, target)
                scores.pop(next(iter(scores)))
                return scores

        with pytest.raises(ValueError, match="no score for"):
            evaluate_strategy(BrokenStrategy(), tiny_image_zoo)

    def test_missing_ground_truth_detected(self, tiny_image_zoo):
        with pytest.raises(KeyError):
            tiny_image_zoo.ground_truth(tiny_image_zoo.target_names()[0],
                                        method="quantum")

    def test_constant_scores_yield_zero_correlation(self, tiny_image_zoo):
        class ConstantStrategy:
            name = "constant"

            def scores_for_target(self, zoo, target):
                return {m: 0.5 for m in zoo.model_ids()}

        ev = evaluate_strategy(ConstantStrategy(), tiny_image_zoo)
        assert ev.average_correlation() == 0.0


class TestDeterminismAcrossRuns:
    def test_full_tg_pipeline_deterministic(self, tiny_image_zoo):
        target = tiny_image_zoo.target_names()[0]
        a = tg(seed=11).scores_for_target(tiny_image_zoo, target)
        b = tg(seed=11).scores_for_target(tiny_image_zoo, target)
        assert a == b

    def test_evaluation_object_consistency(self, tiny_image_zoo):
        ev = evaluate_strategy(RandomStrategy(3), tiny_image_zoo)
        k_accs = [r.top_k_accuracy(3) for r in ev.results.values()]
        assert ev.average_top_k_accuracy(3) == pytest.approx(np.mean(k_accs))
