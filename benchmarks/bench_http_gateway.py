"""HTTP front door — end-to-end qps vs the in-process async router.

Not a paper figure: this measures what the wire costs.  The same warm
skewed workload is replayed twice with 8 concurrent clients — once
straight through an :class:`AsyncSelectionRouter` (function calls in one
process) and once as real HTTP/1.1 exchanges against a
:class:`GatewayHTTPServer` on a loopback socket, each client on one
kept-alive connection as the server serves it (request parsing,
protocol JSON both ways).  Both sides are warmed first
so the comparison isolates per-request overhead rather than cold-fit
throughput (which `bench_async_router.py` already covers).
"""

from __future__ import annotations

import asyncio
import time

from benchmarks.conftest import print_header
from repro.serving import (
    AsyncSelectionRouter,
    GatewayHTTPServer,
    RankRequest,
    SelectionGateway,
    SelectionService,
    WorkloadConfig,
    generate_workload,
    replay_concurrent,
)
from repro.zoo import ZooConfig, get_or_build_zoo

_CLIENTS = 8
_QUERIES = 60
_NAMESPACE = "bench"


async def _http_client(host: str, port: int,
                       bodies: list[tuple[str, bytes]]) -> None:
    """Replay ``bodies`` over one kept-alive connection, as a real client
    would; responses are framed by their Content-Length."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for path, payload in bodies:
            writer.write((f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
                          f"Content-Length: {len(payload)}\r\n\r\n"
                          ).encode() + payload)
            head = await reader.readuntil(b"\r\n\r\n")
            status = int(head.split(b" ", 2)[1])
            assert status == 200, f"unexpected HTTP {status}"
            length = next(int(line.split(b":", 1)[1])
                          for line in head.split(b"\r\n")
                          if line.lower().startswith(b"content-length:"))
            await reader.readexactly(length)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def _http_replay(gateway: SelectionGateway, workload,
                       clients: int) -> float:
    """Replay the workload over live HTTP; returns wall seconds."""
    server = GatewayHTTPServer(gateway, "127.0.0.1", 0)
    host, port = await server.start()
    bodies = [(("/v1/rank" if isinstance(request, RankRequest)
                else "/v1/score_batch"), request.to_json().encode())
              for request in workload]

    started = time.perf_counter()
    await asyncio.gather(*(_http_client(host, port, bodies)
                           for _ in range(clients)))
    elapsed = time.perf_counter() - started
    await server.close()
    return elapsed


def _run() -> dict[str, float]:
    zoo = get_or_build_zoo(ZooConfig.tiny(modality="image", seed=7))
    spec = "tg:lr,n2v,all"
    workload = generate_workload(zoo, WorkloadConfig(
        num_queries=_QUERIES, zipf_alpha=1.2, seed=3), namespace=_NAMESPACE)

    # --- in-process baseline: warm router, function-call transport ----- #
    router = AsyncSelectionRouter(SelectionService(zoo, spec))
    try:
        asyncio.run(router.warmup())
        in_process = replay_concurrent(router, workload, clients=_CLIENTS)
        assert in_process["fits"] == 0  # warm: transport cost only
    finally:
        router.close()

    # --- the same traffic as real loopback HTTP ------------------------ #
    gateway = SelectionGateway()
    gateway.add_namespace(_NAMESPACE, zoo, spec)
    try:
        async def measured() -> float:
            await gateway.warmup()
            return await _http_replay(gateway, workload, _CLIENTS)

        http_wall = asyncio.run(measured())
        stats = gateway.stats()
        # warmup fitted every target once; the replay itself stayed warm
        assert stats.namespaces[_NAMESPACE]["fits"] == len(zoo.target_names())
        assert stats.fleet["queries"] == _CLIENTS * _QUERIES
    finally:
        gateway.close()

    total = _CLIENTS * _QUERIES
    return {
        "in_process_qps": in_process["qps"],
        "http_qps": total / http_wall,
        "http_wall_s": http_wall,
        "queries": total,
        "p95_ms": in_process["p95_ms"],
    }


def test_bench_http_gateway(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    overhead = rows["in_process_qps"] / rows["http_qps"]
    print_header(f"HTTP gateway — {_CLIENTS} clients, warm "
                 f"{_QUERIES}-query workload, loopback HTTP vs in-process")
    print(f"  in-process throughput  {rows['in_process_qps']:10.1f} qps")
    print(f"  HTTP throughput        {rows['http_qps']:10.1f} qps")
    print(f"  wire overhead          {overhead:10.2f}x")
    print(f"  queries served         {rows['queries']:10.0f}")
    # The wire must stay the transport, not the bottleneck: end-to-end
    # HTTP keeps a usable fraction of in-process throughput.
    assert rows["http_qps"] >= rows["in_process_qps"] / 10
