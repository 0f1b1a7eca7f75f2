"""Compare model-selection strategies on the image zoo (Fig. 7a workload).

Run:  python examples/image_zoo_selection.py

Evaluates random selection, LogME, Amazon LR and TransferGraph with the
leave-one-out protocol over all eight image targets, and prints the
average Pearson correlation and top-5 accuracy per strategy.
"""

from repro.core import evaluate_strategy
from repro.strategies import get_strategy
from repro.zoo import ZooConfig, get_or_build_zoo


def main() -> None:
    zoo = get_or_build_zoo(ZooConfig.small(modality="image", seed=0))
    strategies = [get_strategy(spec) for spec in (
        "random", "logme", "lr:basic", "lr:all+logme", "tg:xgb,n2v,all")]
    print(f"{'strategy':<20}{'avg Pearson':>14}{'avg top-5 acc':>16}")
    for strategy in strategies:
        ev = evaluate_strategy(strategy, zoo)
        print(f"{strategy.name:<20}{ev.average_correlation():>+14.3f}"
              f"{ev.average_top_k_accuracy(5):>16.3f}")


if __name__ == "__main__":
    main()
