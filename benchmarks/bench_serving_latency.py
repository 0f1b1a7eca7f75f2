"""Serving latency — cold fit vs warm-cache vs registry-warm ``rank``.

Not a paper figure: this benchmarks the serving subsystem the paper's
pitch implies.  A cold query refits graph, embeddings, and predictor;
a warm query answers from the in-memory LRU; a registry-warm query
revives the on-disk artifact (rebuilding only the LOO graph).  The
warm path must be at least 10x faster than the cold path.
"""

from __future__ import annotations

import time

from benchmarks.conftest import print_header
from repro.serving import ArtifactRegistry, SelectionService
from repro.zoo import ZooConfig, get_or_build_zoo

_WARM_ROUNDS = 20


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _run(registry_root) -> dict[str, float]:
    zoo = get_or_build_zoo(ZooConfig.tiny(modality="image", seed=7))
    spec = "tg:xgb,n2v,all"
    registry = ArtifactRegistry(registry_root)
    target = zoo.target_names()[0]

    service = SelectionService(zoo, spec, registry=registry)
    start = time.perf_counter()
    cold_rank = service.rank(target, top_k=5)
    cold_s = time.perf_counter() - start
    assert service.stats()["fits"] == 1

    warm_s = _best_of(lambda: service.rank(target, top_k=5), _WARM_ROUNDS)
    assert service.stats()["fits"] == 1  # never refit on the warm path
    assert service.rank(target, top_k=5) == cold_rank

    # A fresh process: empty memory cache, artifact already on disk.
    revived = SelectionService(zoo, spec, registry=registry)
    start = time.perf_counter()
    assert revived.rank(target, top_k=5) == cold_rank
    registry_s = time.perf_counter() - start
    assert revived.stats()["fits"] == 0

    return {"cold_s": cold_s, "warm_s": warm_s, "registry_s": registry_s}


def test_bench_serving_latency(benchmark, tmp_path):
    rows = benchmark.pedantic(_run, args=(tmp_path / "registry",),
                              rounds=1, iterations=1)
    print_header("Serving latency — cold fit vs warm cache (tiny image zoo)")
    print(f"  cold fit + rank        {rows['cold_s'] * 1e3:10.1f} ms")
    print(f"  warm cache rank        {rows['warm_s'] * 1e3:10.1f} ms")
    print(f"  registry-warm rank     {rows['registry_s'] * 1e3:10.1f} ms")
    print(f"  warm speedup           {rows['cold_s'] / rows['warm_s']:10.1f}x")
    print(f"  registry speedup       {rows['cold_s'] / rows['registry_s']:10.1f}x")
    assert rows["cold_s"] / rows["warm_s"] >= 10.0
