"""Figure 12 (Appendix A) — effect of the dataset representation.

Task2Vec vs Domain Similarity embeddings, with the XGB predictor over
GraphSAGE and Node2Vec features.  Paper: "only slight differences ... on
most of the datasets"; Task2Vec shows no advantage for GraphSAGE.
"""

from benchmarks.conftest import print_header
from repro.core import evaluate_strategy
from repro.graph import GraphConfig
from repro.probe import compute_dataset_embeddings, record_dataset_similarities
from repro.strategies import get_strategy


def _run(zoo):
    # Record Task2Vec similarities once so the builder can use them.
    embeddings = compute_dataset_embeddings(zoo, method="task2vec")
    record_dataset_similarities(zoo, embeddings, method="task2vec")

    rows = {}
    for learner in ("graphsage", "node2vec"):
        for method in ("domain_similarity", "task2vec"):
            strategy = get_strategy(
                f"tg:xgb,{learner},all",
                graph=GraphConfig(similarity_method=method))
            key = f"XGB,{learner},{method}"
            rows[key] = evaluate_strategy(strategy, zoo).average_correlation()
    return rows


def test_fig12_dataset_representations(benchmark, image_zoo):
    rows = benchmark.pedantic(_run, args=(image_zoo,), rounds=1, iterations=1)
    print_header("Figure 12 — dataset representations (image)")
    for key, value in rows.items():
        print(f"  {key:<40} {value:+.3f}")
    # shape: representations produce broadly similar results per learner
    for learner in ("graphsage", "node2vec"):
        a = rows[f"XGB,{learner},domain_similarity"]
        b = rows[f"XGB,{learner},task2vec"]
        assert abs(a - b) < 0.35
