"""Observability overhead — instrumented vs no-op warm-rank latency.

Not a paper figure: the tracing/metrics plane rides every request, so
its cost must be provably negligible.  Two gateways serve the same tiny
zoo, one with the live :class:`~repro.obs.Observability` plane (request
traces and metrics, no event log; ``repro serve`` also logs one event
per request), one with :class:`~repro.obs.NullObservability` (every
hook stubbed).  Both warm
one target, then answer the same warm ``rank`` stream; the instrumented
p95 must stay within 5% of the no-op p95 (plus a small absolute floor —
warm ranks are single-digit milliseconds, where scheduler jitter alone
exceeds 5%).
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from benchmarks.conftest import print_header
from repro.obs import NullObservability, Observability
from repro.serving import RankRequest, SelectionGateway
from repro.zoo import ZooConfig, get_or_build_zoo

_WARM_ROUNDS = 300
#: absolute slack (ms) under which a p95 delta is measurement noise
_EPSILON_MS = 0.75


def _warm_rank_p95_ms(gateway, target: str) -> float:
    async def measure() -> list[float]:
        await gateway.rank(RankRequest(target=target, namespace="bench"))
        latencies = []
        for _ in range(_WARM_ROUNDS):
            start = time.perf_counter()
            await gateway.rank(RankRequest(target=target,
                                           namespace="bench"))
            latencies.append((time.perf_counter() - start) * 1e3)
        return latencies

    return float(np.percentile(asyncio.run(measure()), 95))


def _run() -> dict[str, float]:
    zoo = get_or_build_zoo(ZooConfig.tiny(modality="image", seed=7))
    target = zoo.target_names()[0]

    results: dict[str, float] = {}
    for arm, obs in (("noop", NullObservability()),
                     ("instrumented", Observability())):
        gateway = SelectionGateway(obs=obs)
        try:
            gateway.add_namespace("bench", zoo, "tg:lr,n2v,all")
            results[arm] = _warm_rank_p95_ms(gateway, target)
        finally:
            gateway.close()
    return results


def test_bench_obs_overhead(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    overhead_ms = rows["instrumented"] - rows["noop"]
    overhead_pct = 100.0 * overhead_ms / rows["noop"]
    print_header("Observability overhead — warm rank p95, "
                 f"{_WARM_ROUNDS} rounds (tiny image zoo)")
    print(f"  no-op collector p95    {rows['noop']:10.3f} ms")
    print(f"  instrumented p95       {rows['instrumented']:10.3f} ms")
    print(f"  overhead               {overhead_ms:10.3f} ms "
          f"({overhead_pct:+.1f}%)")
    assert rows["instrumented"] <= max(rows["noop"] * 1.05,
                                       rows["noop"] + _EPSILON_MS)
