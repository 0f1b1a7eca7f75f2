"""Figure 8 + §VII-C — feature ablation, per image dataset.

Four feature sets, all with the LR prediction model:
  i)   metadata only                       (LR)
  ii)  metadata + similarity + LogME       (LR{all,LogME})
  iii) graph features only                 (TG:LR,N2V)
  iv)  metadata + similarity + graph       (TG:LR,N2V,all)

plus the no-training-history scenario (§VII-C): the graph is built from
transferability edges only (paper: avg 0.47 with all features / 0.42 with
graph features only).
"""

from benchmarks.conftest import print_header
from benchmarks.helpers import format_row
from repro.core import evaluate_strategy
from repro.graph import GraphConfig
from repro.strategies import get_strategy


def _run(zoo):
    strategies = [get_strategy(spec) for spec in (
        "lr:basic", "lr:all+logme", "tg:lr,n2v,graph", "tg:lr,n2v,all")]
    per_dataset = {}
    averages = {}
    for strategy in strategies:
        ev = evaluate_strategy(strategy, zoo)
        per_dataset[strategy.name] = ev.correlations()
        averages[strategy.name] = ev.average_correlation()

    # §VII-C: no training history — transferability edges only.
    no_history = GraphConfig(use_accuracy_edges=False,
                             include_pretrain_edges=False)
    for spec, label in (("tg:lr,n2v,all", "no-history TG,all"),
                        ("tg:lr,n2v,graph", "no-history TG")):
        strategy = get_strategy(spec, graph=no_history)
        averages[label] = evaluate_strategy(strategy, zoo) \
            .average_correlation()
    return per_dataset, averages


def test_fig8_feature_ablation(benchmark, image_zoo):
    per_dataset, averages = benchmark.pedantic(
        _run, args=(image_zoo,), rounds=1, iterations=1)
    print_header("Figure 8a — feature ablation (image), Pearson per dataset")
    names = list(per_dataset)
    targets = sorted(next(iter(per_dataset.values())))
    print("  " + " ".join(f"{n[:14]:>15}" for n in [""] + names))
    for t in targets:
        cells = " ".join(f"{per_dataset[n][t]:>15.2f}" for n in names)
        print(f"  {t[:14]:<15}" + cells)
    print("\n  averages (incl. §VII-C no-history scenario; paper: 0.47 / 0.42):")
    for name, value in averages.items():
        print(format_row(name, value))
    # shape: the full feature set is the best TG variant on average
    assert averages["TG:LR,N2V,all"] >= averages["TG:LR,N2V"] - 0.05
