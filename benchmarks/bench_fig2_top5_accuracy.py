"""Figure 2 — average fine-tuned accuracy of the top-5 selected models.

Paper (stanfordcars): Random 0.52 < LogME (SOTA feature-based) 0.70 < TG 0.76.
Expected shape here: Random < LogME ≤ TG, on stanfordcars and on average.
"""

from benchmarks.conftest import print_header
from repro.core import top_k_accuracy
from repro.strategies import get_strategy


def _run(image_zoo):
    target = "stanfordcars"
    rows = {}
    for spec in ("random", "logme", "tg:xgb,n2v,all"):
        strategy = get_strategy(spec)
        scores = strategy.scores_for_target(image_zoo, target)
        rows[strategy.name] = top_k_accuracy(image_zoo, scores, target, k=5)
    return rows


def test_fig2_top5_accuracy(benchmark, image_zoo):
    rows = benchmark.pedantic(_run, args=(image_zoo,), rounds=1, iterations=1)
    print_header("Figure 2 — top-5 avg fine-tuned accuracy (stanfordcars)")
    print(f"  {'paper:':<12} Random 0.52 | LogME 0.70 | TG 0.76")
    parts = " | ".join(f"{k} {v:.2f}" for k, v in rows.items())
    print(f"  {'measured:':<12} {parts}")
    assert rows["Random"] < max(rows.values())
