"""Text-modality model selection, including the LoRA setting (§VII-F).

Run:  python examples/text_zoo_selection.py

Evaluates the strategies on the text zoo, then repeats the comparison
with LoRA fine-tuning as the ground truth (Fig. 11b workload: the graph
is still built from full fine-tuning history).
"""

from repro.core import evaluate_strategy
from repro.strategies import get_strategy
from repro.zoo import ZooConfig, get_or_build_zoo


def main() -> None:
    zoo = get_or_build_zoo(ZooConfig.small(modality="text", seed=0))
    strategies = [get_strategy(spec)
                  for spec in ("logme", "lr:all+logme", "tg:lr,n2v+,all")]

    print("=== full fine-tuning ground truth ===")
    for strategy in strategies:
        ev = evaluate_strategy(strategy, zoo)
        print(f"  {strategy.name:<20} avg Pearson {ev.average_correlation():+.3f}")

    print("\nComputing LoRA fine-tuning history (one-off) ...")
    zoo.ensure_lora_history()
    print("=== LoRA ground truth, full-FT history (Fig. 11b) ===")
    for strategy in strategies:
        ev = evaluate_strategy(strategy, zoo, ground_truth_method="lora")
        print(f"  {strategy.name:<20} avg Pearson {ev.average_correlation():+.3f}")


if __name__ == "__main__":
    main()
