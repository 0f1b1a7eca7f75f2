"""The observability plane over the wire: /v1/metrics + request ids.

Drives a live loopback gateway through a rank (cold, warm, coalesced),
shed, and compare sequence, then asserts the Prometheus exposition at
``GET /v1/metrics`` carries every label set the sequence produced.
"""

from __future__ import annotations

import asyncio
import json

from repro.obs import EXPOSITION_CONTENT_TYPE
from repro.serving import GatewayHTTPServer

from serving_stubs import stub_gateway


def run(coro):
    return asyncio.run(coro)


async def http_request(host, port, method, path, body=None,
                       headers=()):
    """One HTTP/1.1 exchange on its own connection (``Connection:
    close``, read to EOF); returns (status, headers, body bytes)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = body.encode() if isinstance(body, str) else (body or b"")
        head = [f"{method} {path} HTTP/1.1", f"Host: {host}",
                "Connection: close"]
        head.extend(f"{name}: {value}" for name, value in headers)
        if payload:
            head.append(f"Content-Length: {len(payload)}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head_raw, _, body_raw = raw.partition(b"\r\n\r\n")
    lines = head_raw.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    parsed = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        parsed[name.strip().lower()] = value.strip()
    return status, parsed, body_raw


class TestRequestIds:
    def test_body_request_id_echoed_in_body_and_header(self):
        async def scenario():
            gateway = stub_gateway(names=("alpha",))
            try:
                server = GatewayHTTPServer(gateway, "127.0.0.1", 0)
                await server.start()
                host, port = server.address
                result = await http_request(
                    host, port, "POST", "/v1/rank",
                    body=json.dumps({"namespace": "alpha", "target": "t0",
                                     "request_id": "trace-me-42"}))
                await server.close()
                return result
            finally:
                gateway.close()

        status, headers, body = run(scenario())
        assert status == 200
        assert headers["x-request-id"] == "trace-me-42"
        assert json.loads(body)["request_id"] == "trace-me-42"

    def test_header_request_id_echoed_in_header_only(self):
        async def scenario():
            gateway = stub_gateway(names=("alpha",))
            try:
                server = GatewayHTTPServer(gateway, "127.0.0.1", 0)
                await server.start()
                host, port = server.address
                result = await http_request(
                    host, port, "POST", "/v1/rank",
                    body=json.dumps({"namespace": "alpha",
                                     "target": "t0"}),
                    headers=(("X-Request-Id", "hdr-77"),))
                await server.close()
                return result
            finally:
                gateway.close()

        status, headers, body = run(scenario())
        assert status == 200
        assert headers["x-request-id"] == "hdr-77"
        # the body field is additive: absent from the request, absent
        # from the response — the correlation id rides the header only
        assert "request_id" not in json.loads(body)

    def test_request_id_minted_when_absent(self):
        async def scenario():
            gateway = stub_gateway(names=("alpha",))
            try:
                server = GatewayHTTPServer(gateway, "127.0.0.1", 0)
                await server.start()
                host, port = server.address
                result = await http_request(
                    host, port, "POST", "/v1/rank",
                    body=json.dumps({"namespace": "alpha",
                                     "target": "t0"}))
                await server.close()
                return result
            finally:
                gateway.close()

        status, headers, body = run(scenario())
        assert status == 200
        assert len(headers["x-request-id"]) == 16
        assert "request_id" not in json.loads(body)


class TestMetricsEndpoint:
    def test_exposition_after_rank_shed_compare_sequence(self):
        async def scenario():
            gateway = stub_gateway(
                names=("alpha",),
                targets=("t0", "t1", "t2", "t3", "t4"),
                fit_seconds=0.3, max_pending_fits=1)
            try:
                server = GatewayHTTPServer(gateway, "127.0.0.1", 0)
                await server.start()
                host, port = server.address

                async def rank(target):
                    status, _, _ = await http_request(
                        host, port, "POST", "/v1/rank",
                        body=json.dumps({"namespace": "alpha",
                                         "target": target}))
                    return status

                await rank("t0")                        # cold fit
                await rank("t0")                        # warm hit
                # two concurrent ranks for one target: cold + coalesced
                await asyncio.gather(rank("t1"), rank("t1"))
                # three distinct cold targets through a one-slot queue:
                # at least one shed 429
                statuses = await asyncio.gather(rank("t2"), rank("t3"),
                                                rank("t4"))
                assert 429 in statuses
                await http_request(
                    host, port, "POST", "/v1/compare",
                    body=json.dumps({"namespace": "alpha",
                                     "target": "t0"}))
                first = await http_request(host, port, "GET",
                                           "/v1/metrics")
                second = await http_request(host, port, "GET",
                                            "/v1/metrics")
                await server.close()
                return first, second
            finally:
                gateway.close()

        (status, headers, body), (_, _, second_body) = run(scenario())
        assert status == 200
        assert headers["content-type"] == EXPOSITION_CONTENT_TYPE
        text = body.decode()
        spec = "tg:lr,n2v,all"

        prefix = (f'repro_requests_total{{endpoint="rank",'
                  f'namespace="alpha",strategy="{spec}",outcome=')
        for outcome in ("cold", "warm", "coalesced", "shed"):
            assert f'{prefix}"{outcome}"}}' in text
        assert ('repro_requests_total{endpoint="compare",'
                'namespace="alpha",strategy="map",outcome=') in text

        for result in ("hit", "miss"):
            assert (f'repro_cache_lookups_total{{namespace="alpha",'
                    f'strategy="{spec}",result="{result}"}}') in text

        # latency histogram covers the rank traffic
        assert ('repro_request_latency_ms_bucket{endpoint="rank",'
                'namespace="alpha",le="+Inf"}') in text

        # live queue-depth gauge reads 0 once the traffic drains
        assert (f'repro_queue_depth{{namespace="alpha",'
                f'strategy="{spec}"}} 0') in text

        # HTTP responses counted by path and status, 429s included
        assert 'repro_http_responses_total{path="/v1/rank",status="200"}' \
            in text
        assert 'repro_http_responses_total{path="/v1/rank",status="429"}' \
            in text
        # the scrape itself is counted — visible from the next scrape
        assert ('repro_http_responses_total{path="/v1/metrics",'
                'status="200"}') in second_body.decode()

    def test_metrics_endpoint_renders_on_a_quiet_gateway(self):
        async def scenario():
            gateway = stub_gateway(names=("alpha",))
            try:
                server = GatewayHTTPServer(gateway, "127.0.0.1", 0)
                await server.start()
                host, port = server.address
                result = await http_request(host, port, "GET",
                                            "/v1/metrics")
                await server.close()
                return result
            finally:
                gateway.close()

        status, headers, body = run(scenario())
        assert status == 200
        assert headers["content-type"] == EXPOSITION_CONTENT_TYPE
        text = body.decode()
        # families registered up front render HELP/TYPE even before
        # any series exists; the queue gauge is live from add_namespace
        assert "# TYPE repro_requests_total counter" in text
        assert "# TYPE repro_request_latency_ms histogram" in text
        assert 'repro_queue_depth{namespace="alpha"' in text

    def test_unknown_paths_share_one_response_label(self):
        """Clients choose the path; an unknown one must not mint a
        metric series of its own."""
        probes = 20

        async def scenario():
            gateway = stub_gateway(names=("alpha",))
            try:
                server = GatewayHTTPServer(gateway, "127.0.0.1", 0)
                await server.start()
                host, port = server.address
                for i in range(probes):
                    status, _, _ = await http_request(host, port, "GET",
                                                      f"/probe-{i}")
                    assert status == 404
                status, _, _ = await http_request(
                    host, port, "POST", "/v1/rank",
                    body=json.dumps({"namespace": "alpha", "target": "t0"}))
                assert status == 200
                _, _, body = await http_request(host, port, "GET",
                                                "/v1/metrics")
                await server.close()
                return body.decode()
            finally:
                gateway.close()

        text = run(scenario())
        series = [line for line in text.splitlines()
                  if line.startswith("repro_http_responses_total{")]
        assert (f'repro_http_responses_total{{path="-",status="404"}} '
                f'{probes}') in series
        assert not any("probe" in line for line in series)
        assert ('repro_http_responses_total{path="/v1/rank",status="200"} 1'
                in series)
