"""Async router — serial vs concurrent throughput, coalescing proof.

Not a paper figure: this benchmarks the scenario the router exists for.
Eight clients replay the *same* skewed workload concurrently — the
"millions of users asking about the same popular targets" shape — and
single-flight coalescing must keep the cold-fit count at one per
distinct target while total throughput beats the serial ``serve-sim``
baseline by at least 2x (the fits happen once instead of serially
gating every client).

Both runs start from a cold service with no registry, so every distinct
target costs one genuine fit in each mode and the comparison is fair.

The ``--fit-executor`` option (thread | process | both) is the executor
axis: the coalescing bench runs under the chosen executor(s), and
whenever ``process`` is included, ``test_bench_cold_fit_speedup``
additionally measures pure cold-fit throughput — four workers warming
four distinct targets — under both executors and asserts that four
local fit-worker processes (the router's loopback fleet) beat the
GIL-bound thread pool by >= 2x.  It skips on fewer than four cores.
"""

from __future__ import annotations

import asyncio
import time

from benchmarks.conftest import print_header
from benchmarks.helpers import BENCH_EMBEDDING_DIM
from repro.core import FeatureSet, TransferGraphConfig
from repro.serving import (
    AsyncSelectionRouter,
    SelectionService,
    WorkloadConfig,
    generate_workload,
    replay,
    replay_concurrent,
)
from repro.zoo import ZooConfig, get_or_build_zoo

_CLIENTS = 8
_QUERIES = 60

#: the cold-fit speedup bench: this many workers over this many targets
_FIT_WORKERS = 4


def _bench_config() -> TransferGraphConfig:
    return TransferGraphConfig(
        predictor="lr", graph_learner="node2vec",
        embedding_dim=BENCH_EMBEDDING_DIM, features=FeatureSet.everything())


def _run(fit_executor: str) -> dict[str, float]:
    zoo = get_or_build_zoo(ZooConfig.tiny(modality="image", seed=7))
    config = _bench_config()
    workload = generate_workload(zoo, WorkloadConfig(
        num_queries=_QUERIES, zipf_alpha=1.2, seed=3))
    distinct_targets = len({q.target for q in workload})

    serial_service = SelectionService(zoo, config)
    serial = replay(serial_service, workload)
    assert serial["fits"] == distinct_targets

    concurrent_service = SelectionService(zoo, config)
    router = AsyncSelectionRouter(concurrent_service,
                                  fit_executor=fit_executor)
    try:
        # Worker spawn + zoo hydration happen before the clock starts,
        # so the process axis measures fit parallelism, not start-up.
        router.prestart_fit_plane()
        concurrent = replay_concurrent(router, workload, clients=_CLIENTS)
    finally:
        router.close()

    # Coalescing proof: 8x the traffic, still one fit per cold target.
    assert concurrent["fits"] == distinct_targets
    assert concurrent["queries"] == _CLIENTS * _QUERIES
    assert concurrent["coalesced"] > 0

    return {
        "distinct_targets": distinct_targets,
        "serial_qps": serial["qps"],
        "serial_wall_s": serial["wall_s"],
        "concurrent_qps": concurrent["qps"],
        "concurrent_wall_s": concurrent["wall_s"],
        "coalesced": concurrent["coalesced"],
        "fits": concurrent["fits"],
        "fit_p95_ms": concurrent["fit_p95_ms"],
        "predict_p95_ms": concurrent["predict_p95_ms"],
    }


def test_bench_async_router(benchmark, fit_executor):
    rows = benchmark.pedantic(lambda: _run(fit_executor),
                              rounds=1, iterations=1)
    speedup = rows["concurrent_qps"] / rows["serial_qps"]
    print_header(f"Async router — serial vs {_CLIENTS} concurrent clients, "
                 f"{_QUERIES}-query skewed workload (tiny image zoo, "
                 f"{fit_executor} fit executor)")
    print(f"  serial throughput      {rows['serial_qps']:10.1f} qps")
    print(f"  concurrent throughput  {rows['concurrent_qps']:10.1f} qps")
    print(f"  throughput speedup     {speedup:10.1f}x")
    print(f"  cold fits              {rows['fits']:10.0f} "
          f"(== {rows['distinct_targets']:.0f} distinct targets)")
    print(f"  coalesced requests     {rows['coalesced']:10.0f}")
    print(f"  fit p95                {rows['fit_p95_ms']:10.1f} ms")
    print(f"  predict p95            {rows['predict_p95_ms']:10.1f} ms")
    assert speedup >= 2.0


# ---------------------------------------------------------------------- #
# cold-fit throughput: thread pool vs local fit-worker processes
# ---------------------------------------------------------------------- #
def _cold_fit_tput(zoo, targets: list[str], fit_executor: str
                   ) -> tuple[float, float]:
    """(targets-per-second, wall seconds) warming ``targets`` cold."""
    service = SelectionService(zoo, _bench_config())
    router = AsyncSelectionRouter(
        service, max_pending_fits=len(targets),
        fit_workers=_FIT_WORKERS, fit_executor=fit_executor)
    try:
        router.prestart_fit_plane()
        started = time.perf_counter()
        asyncio.run(router.warmup(targets))
        wall = time.perf_counter() - started
        assert router.stats()["fits"] == len(targets)
    finally:
        router.close()
    return len(targets) / wall, wall


def _run_cold_fit() -> dict[str, float]:
    # num_targets=4: the stock tiny zoo has 3 targets; the speedup claim
    # needs at least as many distinct cold fits as workers.
    zoo = get_or_build_zoo(ZooConfig.tiny(modality="image", seed=7,
                                          num_targets=_FIT_WORKERS))
    targets = zoo.target_names()
    assert len(targets) >= _FIT_WORKERS
    thread_tput, thread_wall = _cold_fit_tput(zoo, targets, "thread")
    process_tput, process_wall = _cold_fit_tput(zoo, targets, "process")
    return {
        "targets": len(targets),
        "thread_tput": thread_tput,
        "thread_wall_s": thread_wall,
        "process_tput": process_tput,
        "process_wall_s": process_wall,
    }


def test_bench_cold_fit_speedup(benchmark, request):
    import os

    import pytest

    if request.config.getoption("--fit-executor") == "thread":
        pytest.skip("thread-only run; pass --fit-executor process (or "
                    "both) to bench the local fit-worker processes")
    if (os.cpu_count() or 1) < _FIT_WORKERS:
        # The speedup is CPU parallelism; on fewer cores than workers
        # the worker processes can only lose to their own IPC overhead.
        pytest.skip(f"{os.cpu_count()} cores < {_FIT_WORKERS} fit workers; "
                    "the >=2x cold-fit speedup needs real parallelism")
    rows = benchmark.pedantic(_run_cold_fit, rounds=1, iterations=1)
    speedup = rows["process_tput"] / rows["thread_tput"]
    print_header(f"Cold-fit throughput — {_FIT_WORKERS} fit workers, "
                 f"{rows['targets']:.0f} distinct cold targets "
                 f"(TransferGraph fits)")
    print(f"  thread executor        {rows['thread_tput']:10.2f} fits/s "
          f"({rows['thread_wall_s']:6.2f} s wall)")
    print(f"  process executor       {rows['process_tput']:10.2f} fits/s "
          f"({rows['process_wall_s']:6.2f} s wall)")
    print(f"  process speedup        {speedup:10.1f}x")
    # The whole point of process mode: pure-Python fit stages (walks,
    # SGNS) hold the GIL, so threads serve cold fits at ~1 core while
    # worker processes scale with their count.
    assert speedup >= 2.0
