"""Figure 7 — the headline comparison (average Pearson over 8+8 targets).

Paper: image — LogME 0.37, LR 0.26, LR{all,LogME} 0.26, TG:RF 0.64,
TG:XGB 0.67, TG:LR 0.69;  text — LogME 0.58, LR 0.06, LR{all,LogME} 0.57,
TG:RF 0.65, TG:XGB 0.76, TG:LR 0.77.

Expected shape here: every learning-based strategy ≫ LogME ≫ random-level;
TG variants competitive with/above the metadata baselines (our substrate's
metadata is more informative than the paper's — see docs/fidelity.md).
"""

from benchmarks.conftest import print_header
from benchmarks.helpers import format_row, main_roster
from repro.core import evaluate_strategy

_PAPER = {
    "image": {"LogME": 0.37, "LR": 0.26, "LR{all,LogME}": 0.26,
              "TG:RF,N2V,all": 0.64, "TG:XGB,N2V,all": 0.67,
              "TG:LR,N2V,all": 0.69},
    "text": {"LogME": 0.58, "LR": 0.06, "LR{all,LogME}": 0.57,
             "TG:RF,N2V,all": 0.65, "TG:XGB,N2V,all": 0.76,
             "TG:LR,N2V,all": 0.77},
}


def _run(zoo):
    out = {}
    for strategy in main_roster():
        out[strategy.name] = evaluate_strategy(strategy, zoo) \
            .average_correlation()
    return out


def test_fig7a_image(benchmark, image_zoo):
    rows = benchmark.pedantic(_run, args=(image_zoo,), rounds=1, iterations=1)
    print_header("Figure 7a — avg Pearson correlation, image datasets")
    for name, value in rows.items():
        paper = _PAPER["image"].get(name)
        suffix = f"   (paper {paper:+.2f})" if paper is not None else ""
        print(format_row(name, value) + suffix)
    best_tg = max(v for k, v in rows.items() if k.startswith("TG:"))
    assert best_tg > rows["LogME"]


def test_fig7b_text(benchmark, text_zoo):
    rows = benchmark.pedantic(_run, args=(text_zoo,), rounds=1, iterations=1)
    print_header("Figure 7b — avg Pearson correlation, textual datasets")
    for name, value in rows.items():
        paper = _PAPER["text"].get(name)
        suffix = f"   (paper {paper:+.2f})" if paper is not None else ""
        print(format_row(name, value) + suffix)
    best_tg = max(v for k, v in rows.items() if k.startswith("TG:"))
    assert best_tg > rows["LogME"]
