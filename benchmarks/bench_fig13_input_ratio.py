"""Figure 13 (Appendix B) — effect of the training-history input ratio.

Ratios {0.3, 0.5, 0.7, 1.0} of the history are kept when building the
graph and training set.  Paper: the metadata-only strategy (LR,all) is
robust to low ratios, while the graph-feature strategy degrades —
"with a small input ratio, the constructed graph may have a large number
of disconnected components".
"""

import numpy as np

from benchmarks.conftest import print_header
from repro.core import evaluate_strategy
from repro.graph import GraphConfig
from repro.strategies import get_strategy

RATIOS = (0.3, 0.5, 0.7, 1.0)


def _run(zoo):
    rows = {"LR,all": {}, "TG:LR,N2V+,all": {}}
    for ratio in RATIOS:
        graph = GraphConfig(history_ratio=ratio)
        lr = get_strategy("lr:all")
        rows["LR,all"][ratio] = evaluate_strategy(lr, zoo) \
            .average_correlation()
        tg = get_strategy("tg:lr,n2v+,all", graph=graph)
        rows["TG:LR,N2V+,all"][ratio] = evaluate_strategy(tg, zoo) \
            .average_correlation()
    return rows


def test_fig13_input_ratio(benchmark, image_zoo):
    rows = benchmark.pedantic(_run, args=(image_zoo,), rounds=1, iterations=1)
    print_header("Figure 13 — training-history input ratio (image)")
    print("  " + f"{'strategy':<18}" + "".join(f"{r:>8}" for r in RATIOS))
    for name, by_ratio in rows.items():
        print(f"  {name:<18}" + "".join(f"{by_ratio[r]:>8.2f}" for r in RATIOS))
    # Reproduced shape: the metadata strategy is robust across ratios
    # (paper: "LR,all is more robust even when limited training history").
    # The paper's *second* observation — the graph strategy collapsing at
    # ratio 0.3 — does NOT reproduce here: with only 18 datasets our graph
    # stays connected after subsampling, whereas the paper's 73-dataset
    # graph fragments ("a large number of disconnected components").
    # See docs/fidelity.md, "Fig. 13".
    lr = rows["LR,all"]
    assert max(lr.values()) - min(lr.values()) < 0.15
    tg = rows["TG:LR,N2V+,all"]
    assert all(np.isfinite(v) for v in tg.values())
