"""``/v1/compare`` fan-out — concurrent strategy map vs serial ranks.

Not a paper figure: this measures what the served comparison buys.  A
three-strategy namespace (a TG variant, LogME, random — the acceptance
roster) answers every target two ways, both warm:

- **serial** — one ``/v1/rank`` per strategy awaited one after the
  other, plus one ``/v1/stats`` poll (how a client compared strategies
  before the endpoint existed: collect rankings, then scrape latency
  summaries, then correlate offline);
- **fan-out** — one ``/v1/compare`` per target: the gateway fans the
  strategy map concurrently through the per-strategy routers and
  answers rankings, correlations, and per-strategy live latency
  percentiles in one response.

The fan-out must not lose to the serial sweep (it overlaps the
per-strategy predicts and summarises only the strategies it fanned,
not the whole fleet) and must return the identical rankings — the
comparison is a view over the same serving state, never a second code
path.
"""

from __future__ import annotations

import asyncio
import time

from benchmarks.conftest import print_header
from repro.serving import CompareRequest, RankRequest, SelectionGateway
from repro.zoo import ZooConfig, get_or_build_zoo

_NAMESPACE = "bench"
_ROUNDS = 30


def _build_gateway(zoo) -> SelectionGateway:
    gateway = SelectionGateway()
    gateway.add_namespace(_NAMESPACE, zoo, "tg:lr,n2v,all",
                          strategies=("logme", "random"),
                          fit_budgets="weighted")
    return gateway


async def _measure(gateway: SelectionGateway, targets: list[str]) -> dict:
    await gateway.warmup()
    specs = gateway.strategies(_NAMESPACE)

    serial = time.perf_counter()
    serial_rankings: dict[tuple[str, str], tuple] = {}
    for _ in range(_ROUNDS):
        for target in targets:
            for spec in specs:
                response = await gateway.rank(RankRequest(
                    target=target, namespace=_NAMESPACE, strategy=spec))
                serial_rankings[(target, spec)] = response.ranking
            gateway.stats()  # the latency numbers a comparison needs
    serial_s = time.perf_counter() - serial

    fanned = time.perf_counter()
    fanout_rankings: dict[tuple[str, str], tuple] = {}
    for _ in range(_ROUNDS):
        for target in targets:
            response = await gateway.compare(CompareRequest(
                target=target, namespace=_NAMESPACE))
            for spec, comparison in response.results.items():
                fanout_rankings[(target, spec)] = comparison.ranking
    fanout_s = time.perf_counter() - fanned

    assert fanout_rankings == serial_rankings  # same state, same answers
    return {"serial_s": serial_s, "fanout_s": fanout_s,
            "strategies": float(len(specs)),
            "compares": float(_ROUNDS * len(targets))}


def _run() -> dict[str, float]:
    zoo = get_or_build_zoo(ZooConfig.tiny(modality="image", seed=7))
    gateway = _build_gateway(zoo)
    try:
        return asyncio.run(_measure(gateway, zoo.target_names()))
    finally:
        gateway.close()


def test_bench_compare_fanout(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    per_compare_ms = rows["fanout_s"] / rows["compares"] * 1e3
    per_serial_ms = rows["serial_s"] / rows["compares"] * 1e3
    print_header(f"/v1/compare fan-out — {rows['strategies']:.0f}-strategy "
                 f"map, {rows['compares']:.0f} warm comparisons")
    print(f"  serial rank sweep      {per_serial_ms:10.2f} ms/target")
    print(f"  compare fan-out        {per_compare_ms:10.2f} ms/target")
    print(f"  speedup                {per_serial_ms / per_compare_ms:10.2f}x")
    # The fan-out overlaps per-strategy predicts; generous bound so CI
    # scheduling noise cannot flake the build.
    assert per_compare_ms <= per_serial_ms * 1.5
