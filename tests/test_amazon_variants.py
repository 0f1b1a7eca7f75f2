"""Behavioural tests distinguishing the Amazon-LR feature variants."""

import numpy as np
from repro.core import evaluate_strategy
from repro.strategies import get_strategy


class TestVariantFeatures:
    def test_variants_produce_different_scores(self, tiny_image_zoo):
        zoo = tiny_image_zoo
        target = zoo.target_names()[0]
        basic = get_strategy("lr:basic").scores_for_target(zoo, target)
        full = get_strategy("lr:all+logme").scores_for_target(zoo, target)
        ids = sorted(basic)
        assert not np.allclose([basic[m] for m in ids],
                               [full[m] for m in ids])

    def test_all_variant_sees_similarity(self, tiny_image_zoo):
        """LR{all} scores depend on the target (via similarity); LR's
        near-constant ordering does not."""
        zoo = tiny_image_zoo
        t1, t2 = zoo.target_names()[:2]
        s1 = get_strategy("lr:all").scores_for_target(zoo, t1)
        s2 = get_strategy("lr:all").scores_for_target(zoo, t2)
        ids = sorted(s1)
        diff = np.array([s1[m] for m in ids]) - np.array([s2[m] for m in ids])
        # per-model differences are not all identical: the similarity
        # feature injects genuine model×target variation
        assert diff.std() > 1e-9

    def test_label_method_switch(self, tiny_image_zoo):
        zoo = tiny_image_zoo
        zoo.ensure_lora_history()
        target = zoo.target_names()[0]
        ft = get_strategy("lr:basic").scores_for_target(zoo, target)
        lora = get_strategy("lr:basic", label_method="lora") \
            .scores_for_target(zoo, target)
        ids = sorted(ft)
        assert not np.allclose([ft[m] for m in ids], [lora[m] for m in ids])

    def test_all_variants_evaluable(self, tiny_image_zoo):
        for variant in ("basic", "all", "all+logme"):
            ev = evaluate_strategy(get_strategy(f"lr:{variant}"),
                                   tiny_image_zoo)
            assert np.isfinite(ev.average_correlation())
