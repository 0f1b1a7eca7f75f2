"""Quickstart: build a zoo, rank models for a new dataset, sanity-check.

Run:  python examples/quickstart.py

Builds (or loads from cache) a small image model zoo, then uses the
TransferGraph strategy to rank all pre-trained models for the
``stanfordcars`` target without fine-tuning any of them — and finally
compares the recommendation against the known ground truth.
"""

from repro.core import top_k_accuracy
from repro.strategies import get_strategy
from repro.utils import pearson_correlation
from repro.zoo import ZooConfig, get_or_build_zoo


def main() -> None:
    print("Building (or loading) the image model zoo ...")
    zoo = get_or_build_zoo(ZooConfig.small(modality="image", seed=0))
    target = "stanfordcars"
    print(f"zoo: {len(zoo.model_ids())} models, "
          f"{len(zoo.dataset_names())} datasets; target = {target}\n")

    ranking = get_strategy("tg:xgb,n2v,all").rank(zoo, target)

    print("Top 5 recommended models:")
    for model_id, score in ranking[:5]:
        spec = zoo.model(model_id).spec
        print(f"  {model_id:<24} predicted {score:+.3f}   "
              f"(family={spec.family}, source={spec.pretrain_dataset})")

    ids, truth = zoo.ground_truth(target)
    scores = dict(ranking)
    corr = pearson_correlation(truth, [scores[m] for m in ids])
    top5 = top_k_accuracy(zoo, scores, target, k=5)
    print(f"\nPearson(predicted, actual fine-tune accuracy) = {corr:+.3f}")
    print(f"Avg actual accuracy of the top-5 recommendation  = {top5:.3f}")
    print(f"Avg accuracy of a random pick                    = {truth.mean():.3f}")


if __name__ == "__main__":
    main()
