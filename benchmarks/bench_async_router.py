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

``test_bench_cold_fit_speedup`` measures pure cold-fit throughput —
four fits in flight over four distinct targets — on the router's
thread pool and on a fit fleet of four ``repro fit-worker`` daemons on
this box, and asserts that the daemons beat the GIL-bound thread pool
by >= 2x.  It skips on fewer than four cores.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.conftest import print_header
from repro.fleet import FleetCoordinator
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

_SRC = Path(__file__).resolve().parents[1] / "src"


_TG = "tg:lr,n2v,all"


def _run() -> dict[str, float]:
    zoo = get_or_build_zoo(ZooConfig.tiny(modality="image", seed=7))
    workload = generate_workload(zoo, WorkloadConfig(
        num_queries=_QUERIES, zipf_alpha=1.2, seed=3))
    distinct_targets = len({q.target for q in workload})

    serial_service = SelectionService(zoo, _TG)
    serial = replay(serial_service, workload)
    assert serial["fits"] == distinct_targets

    concurrent_service = SelectionService(zoo, _TG)
    router = AsyncSelectionRouter(concurrent_service)
    try:
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


def test_bench_async_router(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    speedup = rows["concurrent_qps"] / rows["serial_qps"]
    print_header(f"Async router — serial vs {_CLIENTS} concurrent clients, "
                 f"{_QUERIES}-query skewed workload (tiny image zoo)")
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
# cold-fit throughput: thread pool vs a fleet of fit-worker daemons
# ---------------------------------------------------------------------- #
def _warm(zoo, spec, targets: list[str], fleet=None) -> tuple[float, int]:
    """(wall seconds, fits) warming ``targets`` cold, all in flight."""
    service = SelectionService(zoo, spec)
    router = AsyncSelectionRouter(
        service, max_pending_fits=len(targets),
        fit_workers=_FIT_WORKERS, fleet=fleet)
    try:
        started = time.perf_counter()
        asyncio.run(router.warmup(targets))
        return time.perf_counter() - started, router.stats()["fits"]
    finally:
        router.close()


def _run_cold_fit() -> dict[str, float]:
    # num_targets=4: the stock tiny zoo has 3 targets; the speedup claim
    # needs at least as many distinct cold fits as workers.
    zoo = get_or_build_zoo(ZooConfig.tiny(modality="image", seed=7,
                                          num_targets=_FIT_WORKERS))
    targets = zoo.target_names()
    assert len(targets) >= _FIT_WORKERS
    thread_wall, fits = _warm(zoo, _TG, targets)
    assert fits == len(targets)

    fleet = FleetCoordinator("127.0.0.1", 0)
    host, port = fleet.start()
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "fit-worker",
             "--connect", f"{host}:{port}", "--name", f"bench{i}"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for i in range(_FIT_WORKERS)]
    try:
        fleet.wait_for_workers(_FIT_WORKERS, timeout_s=120.0)
        # One cheap fit per daemon first, so each has loaded the zoo
        # before the clock starts: the bench measures fit parallelism,
        # not interpreter start-up or zoo hydration.
        _warm(zoo, "logme", targets, fleet)
        fleet_wall, fits = _warm(zoo, _TG, targets, fleet)
        assert fits == len(targets)
    finally:
        fleet.close()
        for worker in workers:
            worker.terminate()
            worker.wait(timeout=10)
    return {
        "targets": len(targets),
        "thread_tput": len(targets) / thread_wall,
        "thread_wall_s": thread_wall,
        "fleet_tput": len(targets) / fleet_wall,
        "fleet_wall_s": fleet_wall,
    }


def test_bench_cold_fit_speedup(benchmark):
    import pytest

    if (os.cpu_count() or 1) < _FIT_WORKERS:
        # The speedup is CPU parallelism; on fewer cores than workers
        # the worker processes can only lose to their own IPC overhead.
        pytest.skip(f"{os.cpu_count()} cores < {_FIT_WORKERS} fit workers; "
                    "the >=2x cold-fit speedup needs real parallelism")
    rows = benchmark.pedantic(_run_cold_fit, rounds=1, iterations=1)
    speedup = rows["fleet_tput"] / rows["thread_tput"]
    print_header(f"Cold-fit throughput — {_FIT_WORKERS} fit workers, "
                 f"{rows['targets']:.0f} distinct cold targets "
                 f"(TransferGraph fits)")
    print(f"  thread pool            {rows['thread_tput']:10.2f} fits/s "
          f"({rows['thread_wall_s']:6.2f} s wall)")
    print(f"  fit-worker daemons     {rows['fleet_tput']:10.2f} fits/s "
          f"({rows['fleet_wall_s']:6.2f} s wall)")
    print(f"  fleet speedup          {speedup:10.1f}x")
    # The whole point of the fleet: pure-Python fit stages (walks,
    # SGNS) hold the GIL, so threads serve cold fits at ~1 core while
    # worker processes scale with their count.
    assert speedup >= 2.0
