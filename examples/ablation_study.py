"""Feature-set ablation on one target (Fig. 8 workload, single dataset).

Run:  python examples/ablation_study.py

Shows how each feature group changes the quality of the prediction for a
single target dataset, including the cold-start scenario where no
fine-tuning history exists (§VII-C).
"""

from repro.core import evaluate_strategy
from repro.graph import GraphConfig
from repro.strategies import get_strategy
from repro.zoo import ZooConfig, get_or_build_zoo

#: feature set -> the LR-predictor strategy that uses exactly it
FEATURE_SETS = {
    "metadata only (LR)": "lr:basic",
    "+ similarity + LogME": "lr:all+logme",
    "graph features only": "tg:lr,n2v,graph",
    "metadata + sim + graph": "tg:lr,n2v,all",
}


def main() -> None:
    zoo = get_or_build_zoo(ZooConfig.small(modality="image", seed=0))
    target = "caltech101"
    print(f"target = {target}\n")
    print(f"{'feature set':<26}{'Pearson':>10}")
    for label, spec in FEATURE_SETS.items():
        ev = evaluate_strategy(get_strategy(spec), zoo, targets=[target])
        print(f"{label:<26}{ev.results[target].correlation:>+10.3f}")

    print("\ncold start (no fine-tuning history, transferability edges only):")
    strategy = get_strategy(
        "tg:lr,n2v,all",
        graph=GraphConfig(use_accuracy_edges=False,
                          include_pretrain_edges=False))
    ev = evaluate_strategy(strategy, zoo, targets=[target])
    print(f"{'no-history TG':<26}{ev.results[target].correlation:>+10.3f}")


if __name__ == "__main__":
    main()
