"""Integration tests: the TransferGraph pipeline, evaluation, baselines."""

import numpy as np
import pytest

from repro.core import (
    FeatureSet,
    LooEvaluation,
    TargetResult,
    TransferGraphConfig,
    evaluate_strategy,
    top_k_accuracy,
)
from repro.strategies import (
    RandomStrategy,
    TransferabilityStrategy,
    TransferGraphStrategy,
    get_strategy,
)


def tg(**overrides):
    """``tg:lr,n2v,all`` at a small embedding dimension."""
    return TransferGraphStrategy(TransferGraphConfig(
        **{"embedding_dim": 8, **overrides}))


class TestTransferGraphPipeline:
    def test_fit_produces_fitted_state(self, tiny_image_zoo):
        zoo = tiny_image_zoo
        target = zoo.target_names()[0]
        fitted = tg().fit(zoo, target)
        assert fitted.target == target
        assert fitted.graph_stats["num_nodes"] == \
            len(zoo.dataset_names()) + len(zoo.model_ids())
        assert fitted.feature_names

    def test_scores_cover_all_models(self, tiny_image_zoo):
        zoo = tiny_image_zoo
        scores = tg().scores_for_target(zoo, zoo.target_names()[0])
        assert set(scores) == set(zoo.model_ids())
        assert all(np.isfinite(v) for v in scores.values())

    def test_rank_sorted(self, tiny_image_zoo):
        zoo = tiny_image_zoo
        ranking = tg().rank(zoo, zoo.target_names()[0])
        values = [v for _, v in ranking]
        assert values == sorted(values, reverse=True)
        assert {m for m, _ in ranking} == set(zoo.model_ids())

    def test_deterministic(self, tiny_image_zoo):
        zoo = tiny_image_zoo
        target = zoo.target_names()[0]
        s1 = tg(seed=5).scores_for_target(zoo, target)
        s2 = tg(seed=5).scores_for_target(zoo, target)
        assert s1 == s2

    def test_graph_only_variant_runs(self, tiny_image_zoo):
        zoo = tiny_image_zoo
        scores = tg(features=FeatureSet.graph_only()).scores_for_target(
            zoo, zoo.target_names()[0])
        assert len(scores) == len(zoo.model_ids())

    def test_all_predictors_run(self, tiny_image_zoo):
        zoo = tiny_image_zoo
        target = zoo.target_names()[0]
        for predictor in ("lr", "rf", "xgb"):
            scores = tg(predictor=predictor).scores_for_target(zoo, target)
            assert len(scores) == len(zoo.model_ids())

    def test_all_graph_learners_run(self, tiny_image_zoo):
        zoo = tiny_image_zoo
        target = zoo.target_names()[0]
        for learner in ("node2vec", "node2vec+", "graphsage", "gat"):
            scores = tg(graph_learner=learner).scores_for_target(zoo, target)
            assert len(scores) == len(zoo.model_ids())

    def test_unknown_target_raises(self, tiny_image_zoo):
        with pytest.raises(KeyError):
            tg().fit(tiny_image_zoo, "nonexistent")


class TestEvaluation:
    def test_evaluate_strategy_structure(self, tiny_image_zoo):
        zoo = tiny_image_zoo
        ev = evaluate_strategy(RandomStrategy(seed=1), zoo)
        assert isinstance(ev, LooEvaluation)
        assert set(ev.results) == set(zoo.target_names())
        assert -1.0 <= ev.average_correlation() <= 1.0

    def test_correlations_match_results(self, tiny_image_zoo):
        ev = evaluate_strategy(RandomStrategy(seed=2), tiny_image_zoo)
        for target, corr in ev.correlations().items():
            assert corr == ev.results[target].correlation

    def test_top_k_accuracy_perfect_strategy(self, tiny_image_zoo):
        """Scoring by the ground truth itself maximises top-k accuracy."""
        zoo = tiny_image_zoo
        target = zoo.target_names()[0]
        ids, truth = zoo.ground_truth(target)
        oracle = dict(zip(ids, truth))
        k = 3
        best = np.sort(truth)[-k:].mean()
        assert top_k_accuracy(zoo, oracle, target, k=k) == pytest.approx(best)

    def test_target_result_top_k(self):
        result = TargetResult(
            target="d", correlation=0.5,
            scores={"a": 0.9, "b": 0.1, "c": 0.5},
            truth={"a": 0.8, "b": 0.2, "c": 0.6},
        )
        assert result.top_k_accuracy(k=2) == pytest.approx((0.8 + 0.6) / 2)

    def test_evaluate_subset_of_targets(self, tiny_image_zoo):
        targets = tiny_image_zoo.target_names()[:2]
        ev = evaluate_strategy(RandomStrategy(), tiny_image_zoo, targets=targets)
        assert set(ev.results) == set(targets)

    def test_empty_targets_rejected(self, tiny_image_zoo):
        with pytest.raises(ValueError):
            evaluate_strategy(RandomStrategy(), tiny_image_zoo, targets=[])


class TestBaselines:
    def test_random_deterministic_per_seed(self, tiny_image_zoo):
        zoo = tiny_image_zoo
        t = zoo.target_names()[0]
        assert RandomStrategy(7).scores_for_target(zoo, t) == \
            RandomStrategy(7).scores_for_target(zoo, t)
        assert RandomStrategy(7).scores_for_target(zoo, t) != \
            RandomStrategy(8).scores_for_target(zoo, t)

    def test_feature_based_uses_catalog_cache(self, tiny_image_zoo):
        zoo = tiny_image_zoo
        t = zoo.target_names()[0]
        strategy = TransferabilityStrategy("logme")
        first = strategy.scores_for_target(zoo, t)
        # second call must hit the catalog (same values)
        second = strategy.scores_for_target(zoo, t)
        assert first == second

    def test_feature_based_unknown_metric(self):
        with pytest.raises(KeyError):
            TransferabilityStrategy("sorcery")

    def test_amazon_lr_variants(self, tiny_image_zoo):
        zoo = tiny_image_zoo
        t = zoo.target_names()[0]
        for variant, name in (("basic", "LR"), ("all", "LR{all}"),
                              ("all+logme", "LR{all,LogME}")):
            strategy = get_strategy(f"lr:{variant}")
            assert (strategy.spec, strategy.name) == (f"lr:{variant}", name)
            scores = strategy.scores_for_target(zoo, t)
            assert set(scores) == set(zoo.model_ids())

    def test_basic_lr_ranking_nearly_target_independent(self, tiny_image_zoo):
        """Metadata-only LR produces near-identical orderings per target.

        Model features do not vary with the target; only the LOO training
        set does, so the learned coefficients (and thus rankings) may
        shift slightly — but the orderings must stay strongly rank-
        correlated.
        """
        from repro.utils import spearman_correlation

        zoo = tiny_image_zoo
        strategy = get_strategy("lr:basic")
        t1, t2 = zoo.target_names()[:2]
        s1 = strategy.scores_for_target(zoo, t1)
        s2 = strategy.scores_for_target(zoo, t2)
        ids = sorted(s1)
        rho = spearman_correlation([s1[m] for m in ids], [s2[m] for m in ids])
        assert rho > 0.5


class TestHeadlineShape:
    """The paper's qualitative result on the tiny test zoo.

    Thresholds are intentionally loose — the tiny zoo has only 3 targets —
    but the ordering random < informed must hold.
    """

    def test_informed_strategies_beat_random(self, tiny_image_zoo):
        zoo = tiny_image_zoo
        random_corr = evaluate_strategy(RandomStrategy(), zoo) \
            .average_correlation()
        tg_corr = evaluate_strategy(tg(), zoo).average_correlation()
        assert tg_corr > random_corr
