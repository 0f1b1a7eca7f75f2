"""The served evaluation engine behind ``/v1/compare``.

The paper's central claim is comparative — TransferGraph against LogME /
LEEP / Amazon-LR on rank correlation and top-k transfer accuracy — and
PR 4 put every one of those rankers behind the same serving stack.  This
module turns the comparison itself into a served workload:

- :func:`build_comparisons` — the response-side math: given every
  strategy's full ranking for one target (and which strategies were
  shed), compute pairwise Pearson/Spearman rank correlations and top-k
  overlap against a reference strategy and assemble the protocol's
  :class:`~repro.serving.protocol.StrategyComparison` map.  The gateway's ``compare`` entry point is
  the only caller on the serving path, so wire and offline results
  cannot diverge;
- :func:`served_evaluation` — the offline face (``repro evaluate
  --served``): warm a namespace, replay a target list through
  :meth:`SelectionGateway.compare`, and aggregate a machine-readable
  benchmark report (``BENCH_compare.json``) with per-strategy mean
  correlations, mean top-k overlap, and warm-rank latency percentiles
  from each strategy's serving record.  The CI benchmark gate
  (``benchmarks/compare_gate.py``) consumes exactly this schema.

Scores, not rank positions, feed the Pearson correlation (matching the
offline :func:`repro.core.evaluate_strategy` harness); Spearman is the
same computation over rank vectors.  Overlap is the fraction of the
reference's top-k model *set* the strategy reproduces — order inside the
top-k does not matter, matching the paper's top-k transfer-accuracy
framing where any of the truly-best models is a good answer.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.serving.protocol import (
    PROTOCOL_VERSION,
    CompareRequest,
    StrategyComparison,
)
from repro.utils import pearson_correlation, spearman_correlation

__all__ = [
    "build_comparisons",
    "ranking_metrics",
    "served_evaluation",
    "run_served_evaluation",
    "write_report",
    "REPORT_BENCHMARK",
]

#: the ``benchmark`` discriminant of a BENCH_compare.json report
REPORT_BENCHMARK = "compare_served"


def ranking_metrics(
    reference: list[tuple[str, float]],
    ranking: list[tuple[str, float]],
    top_k: int,
) -> tuple[float, float, float]:
    """(pearson, spearman, top-k overlap) of one ranking vs the reference.

    Both rankings must cover the same model set (every strategy of a
    namespace ranks the namespace zoo's full roster).  Scores are
    aligned by model id; overlap compares top-k *sets*.
    """
    ref_scores = dict(reference)
    scores = dict(ranking)
    if set(ref_scores) != set(scores):
        raise ValueError(
            "rankings cover different model sets: "
            f"{sorted(set(ref_scores) ^ set(scores))[:3]}"
        )
    model_ids = sorted(ref_scores)
    ref_vec = [ref_scores[m] for m in model_ids]
    vec = [scores[m] for m in model_ids]
    k = min(top_k, len(model_ids))
    ref_top = {m for m, _ in reference[:k]}
    top = {m for m, _ in ranking[:k]}
    return (
        pearson_correlation(ref_vec, vec),
        spearman_correlation(ref_vec, vec),
        len(ref_top & top) / k,
    )


def build_comparisons(rankings: dict[str, list[tuple[str, float]]],
                      sheds: dict[str, float],
                      *,
                      reference: str,
                      top_k: int,
                      latencies: dict[str, dict[str, float]] | None = None,
                      ) -> dict[str, StrategyComparison]:
    """Assemble the per-strategy comparison map of a compare response.

    ``rankings`` holds each answering strategy's full best-first ranking;
    ``sheds`` maps strategies that were shed (a full cold-fit queue, or
    a retryable fleet failure) to their ``retry_after_s`` hints.  When the *reference* itself was shed there
    is nothing to correlate against, so the ok entries carry rankings
    and latencies but no correlation fields.
    """
    if reference not in rankings and reference not in sheds:
        raise ValueError(
            f"reference {reference!r} is not among the compared strategies"
        )
    overlap = set(rankings) & set(sheds)
    if overlap:
        raise ValueError(f"strategies marked both ok and shed: {sorted(overlap)}")
    latencies = latencies or {}
    ref_ranking = rankings.get(reference)
    results: dict[str, StrategyComparison] = {}
    for spec, ranking in rankings.items():
        pearson = spearman = shared = None
        if ref_ranking is not None:
            pearson, spearman, shared = ranking_metrics(ref_ranking, ranking, top_k)
        results[spec] = StrategyComparison(
            status="ok",
            ranking=tuple(ranking),
            pearson=pearson,
            spearman=spearman,
            top_k_overlap=shared,
            latency=latencies.get(spec, {}),
        )
    for spec, retry_after_s in sheds.items():
        results[spec] = StrategyComparison(
            status="shed",
            retry_after_s=float(retry_after_s),
            latency=latencies.get(spec, {}),
        )
    return results


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


async def served_evaluation(
    gateway,
    namespace: str,
    *,
    targets: list[str] | None = None,
    strategies: list[str] | None = None,
    reference: str | None = None,
    top_k: int | None = None,
    warm: bool = True,
) -> dict:
    """Replay a target list through ``/v1/compare``; return the report.

    The namespace is warmed first (``warm=False`` skips it, turning the
    pass into a cold-fit benchmark where sheds are expected), then each
    target is compared in sequence — the per-target strategy fan-out
    stays the unit of concurrency, so warm-rank latencies are clean.
    The report aggregates per strategy: mean correlations and top-k
    overlap vs the reference, shed counts, warm-rank latency
    percentiles (the latency histogram's delta over this pass only,
    read from bucket counts).
    """
    if targets is None:
        targets = gateway.service(namespace).zoo.target_names()
    if not targets:
        raise ValueError("no targets to compare")
    if warm:
        await gateway.warmup(namespace)

    def latencies(spec: str):
        return gateway.service(namespace, spec).stats_snapshot().latencies_ms

    before = {spec: latencies(spec) for spec in gateway.strategies(namespace)}
    started = time.perf_counter()
    responses = [
        await gateway.compare(
            CompareRequest(
                target=target,
                namespace=namespace,
                strategies=tuple(strategies) if strategies else None,
                reference=reference,
                top_k=top_k,
            )
        )
        for target in targets
    ]
    wall_s = time.perf_counter() - started

    per_strategy: dict[str, dict] = {}
    for response in responses:
        for spec, comparison in response.results.items():
            row = per_strategy.setdefault(
                spec,
                {
                    "pearson": [],
                    "spearman": [],
                    "top_k_overlap": [],
                    "targets_ok": 0,
                    "targets_shed": 0,
                },
            )
            if comparison.status == "shed":
                row["targets_shed"] += 1
                continue
            row["targets_ok"] += 1
            for metric in ("pearson", "spearman", "top_k_overlap"):
                value = getattr(comparison, metric)
                if value is not None:
                    row[metric].append(value)

    strategies_out: dict[str, dict] = {}
    for spec, row in sorted(per_strategy.items()):
        warm = latencies(spec).since(before[spec])
        warm_p50, warm_p95 = warm.percentiles((50, 95))
        strategies_out[spec] = {
            "mean_pearson": _mean(row["pearson"]),
            "mean_spearman": _mean(row["spearman"]),
            "mean_top_k_overlap": _mean(row["top_k_overlap"]),
            "targets_ok": row["targets_ok"],
            "targets_shed": row["targets_shed"],
            "warm_rank_p50_ms": warm_p50,
            "warm_rank_p95_ms": warm_p95,
        }

    return {
        "benchmark": REPORT_BENCHMARK,
        "protocol": PROTOCOL_VERSION,
        "namespace": namespace,
        "reference": responses[0].reference,
        "top_k": responses[0].top_k,
        "targets": list(targets),
        "wall_s": wall_s,
        "strategies": strategies_out,
    }


def run_served_evaluation(gateway, namespace: str, **kwargs) -> dict:
    """Synchronous wrapper: run :func:`served_evaluation` in a fresh loop."""
    import asyncio

    return asyncio.run(served_evaluation(gateway, namespace, **kwargs))


def write_report(path: str | Path, report: dict) -> Path:
    """Write a benchmark report as stable, diff-friendly JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
