"""Cold-start model selection: a brand-new zoo with no fine-tuning history.

Run:  python examples/no_history_cold_start.py

§VII-C of the paper: when no training history exists yet, the graph can
be built from transferability scores alone.  This example walks the full
pipeline explicitly — scoring, graph construction, embedding, feature
assembly — rather than through one strategy call, as a tour of the
public API.
"""


from repro.graph import GraphConfig, build_graph
from repro.probe import compute_dataset_embeddings, record_dataset_similarities
from repro.strategies import get_strategy
from repro.transferability import score_zoo
from repro.utils import pearson_correlation
from repro.zoo import ZooConfig, get_or_build_zoo


def main() -> None:
    zoo = get_or_build_zoo(ZooConfig.small(modality="image", seed=0))
    target = "dtd"

    # Stage 1 by hand: dataset embeddings, similarities, LogME scores.
    embeddings = compute_dataset_embeddings(zoo)
    n_pairs = record_dataset_similarities(zoo, embeddings)
    scores = score_zoo(zoo, metric="logme")
    print(f"recorded {n_pairs} dataset similarities and "
          f"{len(scores)} LogME scores")

    # Stage 2 by hand: the no-history graph.
    config = GraphConfig(use_accuracy_edges=False,
                         include_pretrain_edges=False)
    graph, links = build_graph(zoo, exclude_target=target, config=config)
    stats = graph.stats()
    print(f"graph: {stats['num_nodes']} nodes, "
          f"{stats['num_md_transferability_edges']} transferability edges, "
          f"{stats['num_dd_edges']} similarity edges")

    # Stages 2-4 through the strategy API.
    strategy = get_strategy("tg:lr,n2v,all", graph=config)
    predicted = strategy.scores_for_target(zoo, target)

    ids, truth = zoo.ground_truth(target)
    corr = pearson_correlation(truth, [predicted[m] for m in ids])
    print(f"\ncold-start Pearson on {target}: {corr:+.3f}")
    best = max(predicted, key=predicted.get)
    print(f"top recommendation: {best} "
          f"(actual accuracy {dict(zip(ids, truth))[best]:.3f})")


if __name__ == "__main__":
    main()
