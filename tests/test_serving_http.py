"""HTTP front door: live loopback round-trips, typed failures, 429s.

Every test starts a real :class:`GatewayHTTPServer` on an ephemeral
loopback port and talks raw HTTP/1.1 over ``asyncio.open_connection`` —
no HTTP client library, mirroring the server's no-dependency stance.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fleet import FleetCoordinator
from repro.fleet.errors import (
    FitPlaneError,
    FitTimeoutError,
    FitWorkerCrashError,
    NoWorkersError,
    WireError,
)
from repro.serving import (
    CompareResponse,
    ErrorResponse,
    GatewayHTTPServer,
    RankRequest,
    RankResponse,
    ScoreBatchResponse,
    SelectionGateway,
    StatsResponse,
    message_from_json,
)

from serving_stubs import (
    STUB_SCORES,
    FailingFleet,
    StubStrategy,
    StubZoo,
    stub_gateway,
)


def run(coro):
    return asyncio.run(coro)


def raw_request(method, path, body=b"", headers=()) -> bytes:
    """One HTTP/1.1 request's bytes (``Content-Length`` when there is a body)."""
    head = [f"{method} {path} HTTP/1.1", "Host: test"]
    head.extend(f"{name}: {value}" for name, value in headers)
    if body:
        head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def parse_head(head: bytes) -> tuple[int, dict[str, str]]:
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    return int(lines[0].split()[1]), headers


async def read_response(reader) -> tuple[int, dict[str, str], bytes]:
    """One response framed by its ``Content-Length``: the connection
    may stay open after it."""
    status, headers = parse_head(await reader.readuntil(b"\r\n\r\n"))
    body = await reader.readexactly(int(headers["content-length"]))
    return status, headers, body


async def http_request(host, port, method, path, body=None,
                       raw_head: str | None = None):
    """One HTTP/1.1 exchange on its own connection (``Connection:
    close``, read to EOF); returns (status, headers, body bytes)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        if raw_head is not None:
            writer.write(raw_head.encode())
        else:
            payload = body.encode() if isinstance(body, str) else (body or b"")
            writer.write(raw_request(method, path, payload,
                                     [("Connection", "close")]))
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head_raw, _, body_raw = raw.partition(b"\r\n\r\n")
    status, headers = parse_head(head_raw)
    return status, headers, body_raw


async def serve(gateway):
    """Started server bound to an ephemeral loopback port."""
    server = GatewayHTTPServer(gateway, "127.0.0.1", 0)
    await server.start()
    return server


class TestEndpoints:
    def test_healthz(self):
        async def scenario():
            gateway = stub_gateway(names=("alpha", "beta"))
            try:
                server = await serve(gateway)
                host, port = server.address
                status, headers, body = await http_request(
                    host, port, "GET", "/v1/healthz")
                await server.close()
                return status, headers, json.loads(body)
            finally:
                gateway.close()

        status, headers, payload = run(scenario())
        assert status == 200
        assert headers["content-type"] == "application/json"
        zero_cost = {"fit_ms_p50": 0.0, "fit_ms_p95": 0.0,
                     "fits_timed": 0.0}
        assert payload == {"namespaces": ["alpha", "beta"],
                           "protocol": "v1", "status": "ok",
                           "strategies": {"alpha": ["tg:lr,n2v,all"],
                                          "beta": ["tg:lr,n2v,all"]},
                           "fit_ms": {
                               "alpha": {"tg:lr,n2v,all": zero_cost},
                               "beta": {"tg:lr,n2v,all": zero_cost}}}

    def test_rank_round_trip(self):
        async def scenario():
            gateway = stub_gateway(names=("alpha",))
            try:
                server = await serve(gateway)
                host, port = server.address
                status, _, body = await http_request(
                    host, port, "POST", "/v1/rank",
                    body='{"namespace": "alpha", "target": "t0", "top_k": 2}')
                await server.close()
                return status, body, gateway.service("alpha").rank("t0",
                                                                   top_k=2)
            finally:
                gateway.close()

        status, body, expected = run(scenario())
        assert status == 200
        response = RankResponse.from_json(body)
        assert response.namespace == "alpha"
        assert response.target == "t0"
        assert response.ranking == tuple(expected)  # bit-exact parity

    def test_score_batch_round_trip(self):
        async def scenario():
            gateway = stub_gateway(names=("alpha",))
            try:
                server = await serve(gateway)
                host, port = server.address
                request = {"namespace": "alpha",
                           "pairs": [["m0", "t0"], ["m2", "t1"]]}
                status, _, body = await http_request(
                    host, port, "POST", "/v1/score_batch",
                    body=json.dumps(request))
                await server.close()
                return status, body
            finally:
                gateway.close()

        status, body = run(scenario())
        assert status == 200
        response = ScoreBatchResponse.from_json(body)
        assert response.pairs == (("m0", "t0"), ("m2", "t1"))
        assert len(response.scores) == 2

    def test_expect_100_continue_gets_interim_reply(self):
        """curl sends Expect: 100-continue for larger bodies and stalls
        ~1 s unless the server answers the interim 100."""
        async def scenario():
            gateway = stub_gateway(names=("alpha",))
            try:
                server = await serve(gateway)
                host, port = server.address
                payload = b'{"namespace": "alpha", "target": "t0"}'
                head = (f"POST /v1/rank HTTP/1.1\r\nHost: {host}\r\n"
                        f"Expect: 100-continue\r\nConnection: close\r\n"
                        f"Content-Length: {len(payload)}\r\n\r\n")
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(head.encode())
                    await writer.drain()
                    interim = await reader.readuntil(b"\r\n\r\n")
                    writer.write(payload)
                    await writer.drain()
                    final = await reader.read()
                finally:
                    writer.close()
                await server.close()
                return interim, final
            finally:
                gateway.close()

        interim, final = run(scenario())
        assert interim.startswith(b"HTTP/1.1 100 Continue")
        assert final.startswith(b"HTTP/1.1 200 OK")
        assert b'"kind":"rank_response"' in final

    def test_stats_reports_served_traffic(self):
        async def scenario():
            gateway = stub_gateway(names=("alpha", "beta"))
            try:
                server = await serve(gateway)
                host, port = server.address
                await http_request(
                    host, port, "POST", "/v1/rank",
                    body='{"namespace": "alpha", "target": "t0"}')
                status, _, body = await http_request(host, port, "GET",
                                                     "/v1/stats")
                await server.close()
                return status, body
            finally:
                gateway.close()

        status, body = run(scenario())
        assert status == 200
        stats = StatsResponse.from_json(body)
        assert stats.namespaces["alpha"]["queries"] == 1
        assert stats.namespaces["beta"]["queries"] == 0
        assert stats.fleet["queries"] == 1


class TestTypedFailures:
    def _exchange(self, method, path, body=None, raw_head=None,
                  names=("alpha",)):
        async def scenario():
            gateway = stub_gateway(names=names)
            try:
                server = await serve(gateway)
                host, port = server.address
                result = await http_request(host, port, method, path,
                                            body=body, raw_head=raw_head)
                await server.close()
                return result
            finally:
                gateway.close()

        return run(scenario())

    def test_malformed_json_is_structured_400(self):
        status, _, body = self._exchange("POST", "/v1/rank",
                                         body="{not json at all")
        assert status == 400
        error = ErrorResponse.from_json(body)
        assert error.code == "bad_request"

    def test_validation_failure_is_structured_400(self):
        status, _, body = self._exchange(
            "POST", "/v1/rank", body='{"target": "t0", "bogus": true}')
        assert status == 400
        assert ErrorResponse.from_json(body).code == "bad_request"

    def test_unknown_namespace_is_structured_404(self):
        status, _, body = self._exchange(
            "POST", "/v1/rank",
            body='{"namespace": "nope", "target": "t0"}')
        assert status == 404
        error = ErrorResponse.from_json(body)
        assert error.code == "unknown_namespace"
        assert "nope" in error.message

    def test_unknown_target_is_structured_404(self):
        status, _, body = self._exchange(
            "POST", "/v1/rank",
            body='{"namespace": "alpha", "target": "zzz"}')
        assert status == 404
        assert ErrorResponse.from_json(body).code == "unknown_target"

    def test_unknown_route_and_method(self):
        status, _, body = self._exchange("GET", "/v2/rank")
        assert status == 404
        assert ErrorResponse.from_json(body).code == "not_found"

        status, headers, body = self._exchange("GET", "/v1/rank")
        assert status == 405
        assert headers["allow"] == "POST"
        assert ErrorResponse.from_json(body).code == "method_not_allowed"

    def test_malformed_request_line(self):
        status, _, body = self._exchange(
            None, None, raw_head="BANANAS\r\n\r\n")
        assert status == 400
        assert ErrorResponse.from_json(body).code == "bad_request"

    def test_idle_connection_times_out_without_response(self):
        """A connection that never sends a request (probe/slowloris)
        must be dropped by the read timeout, not pinned forever."""
        async def scenario():
            gateway = stub_gateway(names=("alpha",))
            try:
                server = GatewayHTTPServer(gateway, "127.0.0.1", 0,
                                           read_timeout_s=0.2)
                await server.start()
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    # no request bytes at all; server must hang up
                    raw = await asyncio.wait_for(reader.read(), timeout=5)
                finally:
                    writer.close()
                await server.close()
                return raw
            finally:
                gateway.close()

        assert run(scenario()) == b""  # dropped, no 500 invented

    def _rank_with_id(self, request_id):
        return self._exchange("POST", "/v1/rank", body=json.dumps(
            {"namespace": "alpha", "target": "t0",
             "request_id": request_id}))

    def test_body_request_id_cannot_inject_a_response_header(self):
        status, headers, body = self._rank_with_id(
            "abc\r\nSet-Cookie: pwned=1")
        assert status == 400
        assert ErrorResponse.from_json(body).code == "bad_request"
        assert "set-cookie" not in headers
        assert "x-request-id" not in headers

    def test_header_request_id_with_a_bare_cr_is_refused(self):
        payload = '{"namespace": "alpha", "target": "t0"}'
        status, headers, body = self._exchange(None, None, raw_head=(
            "POST /v1/rank HTTP/1.1\r\nConnection: close\r\n"
            "X-Request-Id: a\rInjected: 1\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n{payload}"))
        assert status == 400
        assert ErrorResponse.from_json(body).code == "bad_request"
        assert not any("\r" in value for value in headers.values())

    def test_unencodable_request_id_is_a_400_not_a_dropped_connection(self):
        status, _, body = self._rank_with_id("\ud800")
        assert status == 400
        assert ErrorResponse.from_json(body).code == "bad_request"

    def test_deeply_nested_json_is_400_not_500(self):
        status, _, body = self._exchange("POST", "/v1/rank", body="[" * 3000)
        assert status == 400
        assert ErrorResponse.from_json(body).code == "bad_request"

    def test_oversized_body_is_413(self):
        async def scenario():
            gateway = stub_gateway(names=("alpha",))
            try:
                server = GatewayHTTPServer(gateway, "127.0.0.1", 0,
                                           max_body_bytes=64)
                await server.start()
                host, port = server.address
                result = await http_request(host, port, "POST", "/v1/rank",
                                            body="x" * 65)
                await server.close()
                return result
            finally:
                gateway.close()

        status, _, body = run(scenario())
        assert status == 413
        assert ErrorResponse.from_json(body).code == "payload_too_large"


#: a valid /v1/rank body: 38 bytes
_RANK_BODY = b'{"namespace": "alpha", "target": "t0"}'


def run_on_connection(exchange, **server_options):
    """``await exchange(reader, writer)`` on one client connection to a
    fresh stub-gateway server; returns its result."""
    async def scenario():
        gateway = stub_gateway(names=("alpha",))
        try:
            server = GatewayHTTPServer(gateway, "127.0.0.1", 0,
                                       **server_options)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                return await exchange(reader, writer)
            finally:
                writer.close()
                await server.close()
        finally:
            gateway.close()

    return run(scenario())


async def read_eof(reader, timeout=5.0) -> bytes:
    """Whatever the server still sends before it closes (b"" if nothing)."""
    return await asyncio.wait_for(reader.read(), timeout)


def rank_request(target, request_id, headers=()) -> bytes:
    body = json.dumps({"namespace": "alpha", "target": target}).encode()
    return raw_request("POST", "/v1/rank", body,
                       [("X-Request-Id", request_id), *headers])


class TestKeepAlive:
    """Many requests per connection; the server closes only when told
    to, after bytes it cannot frame, or when idle past the timeout."""

    def test_requests_on_one_connection_answer_in_order(self):
        async def exchange(reader, writer):
            answers = []
            for i, target in enumerate(("t0", "t1", "t2")):
                writer.write(rank_request(target, f"keep-{i}"))
                answers.append(await read_response(reader))
            return answers

        answers = run_on_connection(exchange)
        assert [status for status, _, _ in answers] == [200, 200, 200]
        assert [headers["x-request-id"] for _, headers, _ in answers] == \
            ["keep-0", "keep-1", "keep-2"]
        assert [RankResponse.from_json(body).target
                for _, _, body in answers] == ["t0", "t1", "t2"]
        assert all(headers["connection"] == "keep-alive"
                   for _, headers, _ in answers)

    def test_pipelined_requests_are_answered_in_order(self):
        async def exchange(reader, writer):
            writer.write(rank_request("t1", "pipe-0")
                         + rank_request("t0", "pipe-1"))
            return [await read_response(reader) for _ in range(2)]

        (s0, h0, b0), (s1, h1, b1) = run_on_connection(exchange)
        assert (s0, s1) == (200, 200)
        assert (h0["x-request-id"], h1["x-request-id"]) == ("pipe-0", "pipe-1")
        assert RankResponse.from_json(b0).target == "t1"
        assert RankResponse.from_json(b1).target == "t0"

    def test_connection_close_is_honoured(self):
        async def exchange(reader, writer):
            writer.write(rank_request("t0", "last", [("Connection", "close")]))
            return await read_response(reader), await read_eof(reader)

        (status, headers, _), rest = run_on_connection(exchange)
        assert status == 200
        assert headers["connection"] == "close"
        assert rest == b""

    def test_http_1_0_closes_unless_it_asks_for_keep_alive(self):
        async def exchange(reader, writer):
            writer.write(b"GET /v1/healthz HTTP/1.0\r\n"
                         b"Connection: Keep-Alive\r\n\r\n")
            kept = await read_response(reader)
            writer.write(b"GET /v1/healthz HTTP/1.0\r\n\r\n")
            return kept, await read_response(reader), await read_eof(reader)

        (s0, kept, _), (s1, closed, _), rest = run_on_connection(exchange)
        assert (s0, s1) == (200, 200)
        assert kept["connection"] == "keep-alive"
        assert closed["connection"] == "close"
        assert rest == b""

    @pytest.mark.parametrize("request_bytes", [
        b"BANANAS\r\n\r\n",
        b"GET /v1/healthz HTTP/1.1\r\nno colon\r\n\r\n",
        b"POST /v1/rank HTTP/1.1\r\nContent-Length : 38\r\n\r\n" + _RANK_BODY,
        b"GET /v1/healthz HTTP/1.1\r\n folded: value\r\n\r\n",
        b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n",
        b"GET /v1/healthz HTTP/1.1\r\n" + b"X-A: 1\r\n" * 65 + b"\r\n",
        b"POST /v1/rank HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        b"POST /v1/rank HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"26\r\n" + _RANK_BODY + b"\r\n0\r\n\r\n",
        b"POST /v1/rank HTTP/1.1\r\nContent-Length: 65\r\n\r\n",
    ], ids=["request-line", "header", "space-before-colon", "obs-fold",
            "long-line", "too-many-headers", "negative-length",
            "transfer-encoding", "413-body-unread"])
    def test_bytes_it_cannot_frame_are_answered_then_closed(
            self, request_bytes):
        """Nothing after unframeable bytes is trusted to start a request:
        the valid rank pipelined behind them is never answered."""
        async def exchange(reader, writer):
            writer.write(request_bytes + rank_request("t0", "smuggled"))
            return await read_response(reader), await read_eof(reader)

        (status, headers, body), rest = run_on_connection(
            exchange, max_body_bytes=64)
        assert status in (400, 413)
        assert ErrorResponse.from_json(body).code == (
            "bad_request" if status == 400 else "payload_too_large")
        assert headers["connection"] == "close"
        assert rest == b""

    def test_complete_requests_keep_the_connection_whatever_the_answer(self):
        async def exchange(reader, writer):
            answers = []
            for request in (raw_request("GET", "/v2/rank"),
                            raw_request("GET", "/v1/rank"),
                            raw_request("POST", "/v1/rank", b"{not json"),
                            rank_request("t0", "after")):
                writer.write(request)
                answers.append(await read_response(reader))
            return answers

        answers = run_on_connection(exchange)
        assert [status for status, _, _ in answers] == [404, 405, 400, 200]
        assert [ErrorResponse.from_json(body).code
                for _, _, body in answers[:3]] == \
            ["not_found", "method_not_allowed", "bad_request"]
        assert all(headers["connection"] == "keep-alive"
                   for _, headers, _ in answers)

    def test_idle_kept_alive_connection_is_dropped_after_read_timeout(self):
        async def exchange(reader, writer):
            writer.write(rank_request("t0", "then-idle"))
            status, _, _ = await read_response(reader)
            loop = asyncio.get_running_loop()
            started = loop.time()
            rest = await read_eof(reader)
            return status, rest, loop.time() - started

        status, rest, idle_s = run_on_connection(exchange, read_timeout_s=0.3)
        assert status == 200
        assert rest == b""  # dropped without a response
        assert 0.2 <= idle_s < 5.0

    def test_close_drops_idle_connections_at_once(self):
        """With the default 30 s read timeout, an idle kept-alive client
        and one that never sent a byte must not hold close(), and their
        handlers end cleanly (a cancelled one is logged on 3.11)."""
        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: unhandled.append(context))
            gateway = stub_gateway(names=("alpha",))
            try:
                server = GatewayHTTPServer(gateway, "127.0.0.1", 0)
                host, port = await server.start()
                kept = await asyncio.open_connection(host, port)
                silent = await asyncio.open_connection(host, port)
                try:
                    kept[1].write(rank_request("t0", "before-close"))
                    status, headers, _ = await read_response(kept[0])
                    await asyncio.wait_for(server.close(), 1.0)
                    return (status, headers["connection"],
                            await read_eof(kept[0], 1.0),
                            await read_eof(silent[0], 1.0), unhandled)
                finally:
                    kept[1].close()
                    silent[1].close()
            finally:
                gateway.close()

        assert run(scenario()) == (200, "keep-alive", b"", b"", [])

    def test_close_lets_an_in_flight_request_finish_with_connection_close(
            self):
        async def scenario():
            gateway = stub_gateway(names=("alpha",), fit_seconds=0.3)
            try:
                server = GatewayHTTPServer(gateway, "127.0.0.1", 0)
                host, port = await server.start()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(rank_request("t0", "in-flight"))
                    # wait until the request is read and its cold fit runs
                    for _ in range(500):
                        if server._connections and not server._reading:
                            break
                        await asyncio.sleep(0.01)
                    closing = asyncio.ensure_future(server.close())
                    answer = await read_response(reader)
                    await asyncio.wait_for(closing, 5.0)
                    return answer, await read_eof(reader)
                finally:
                    writer.close()
            finally:
                gateway.close()

        (status, headers, body), rest = run(scenario())
        assert status == 200
        assert RankResponse.from_json(body).target == "t0"
        assert headers["connection"] == "close"
        assert rest == b""


    def test_close_waits_for_a_connection_still_closing(self, monkeypatch):
        """A client that hangs up just before close() leaves its handler
        waiting on the transport's close; close() must wait for it too,
        or loop teardown cancels the handler mid-close (and 3.11 logs a
        CancelledError traceback for it)."""
        closing = []
        wait_closed = asyncio.StreamWriter.wait_closed

        async def slow_wait_closed(writer):
            closing.append(asyncio.current_task())
            await asyncio.sleep(0.2)
            await wait_closed(writer)

        monkeypatch.setattr(asyncio.StreamWriter, "wait_closed",
                            slow_wait_closed)

        async def scenario():
            gateway = stub_gateway(names=("alpha",))
            try:
                server = GatewayHTTPServer(gateway, "127.0.0.1", 0)
                host, port = await server.start()
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(rank_request("t0", "then-hang-up"))
                status, _, _ = await read_response(reader)
                writer.close()
                for _ in range(500):  # until the handler is closing
                    if closing:
                        break
                    await asyncio.sleep(0.01)
                await asyncio.wait_for(server.close(), 5.0)
                return status, [task.done() for task in closing]
            finally:
                gateway.close()

        assert run(scenario()) == (200, [True])


class TestStrictFraming:
    """RFC 9112 §6: a body length the server cannot be sure of is a 400
    and the connection closes, never a guess."""

    @pytest.mark.parametrize("framing", [
        [("Content-Length", "+38")],
        [("Content-Length", "3_8")],
        [("Content-Length", "2"), ("Content-Length", "38")],
        [("Transfer-Encoding", "chunked"), ("Content-Length", "38")],
    ], ids=["plus-sign", "underscore", "differing-repeats",
            "transfer-encoding-with-content-length"])
    def test_ambiguous_body_length_is_a_400_that_closes(self, framing):
        async def exchange(reader, writer):
            head = ["POST /v1/rank HTTP/1.1", "Host: test"]
            head.extend(f"{name}: {value}" for name, value in framing)
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode()
                         + _RANK_BODY)
            return await read_response(reader), await read_eof(reader)

        (status, headers, body), rest = run_on_connection(exchange)
        assert status == 400
        assert ErrorResponse.from_json(body).code == "bad_request"
        assert headers["connection"] == "close"
        assert rest == b""

    def test_repeated_equal_content_lengths_frame_one_body(self):
        async def exchange(reader, writer):
            writer.write(b"POST /v1/rank HTTP/1.1\r\nContent-Length: 38\r\n"
                         b"Content-Length: 38\r\n\r\n" + _RANK_BODY
                         + rank_request("t1", "next"))
            return [await read_response(reader) for _ in range(2)]

        (s0, _, b0), (s1, _, b1) = run_on_connection(exchange)
        assert (s0, s1) == (200, 200)
        assert RankResponse.from_json(b0).target == "t0"
        assert RankResponse.from_json(b1).target == "t1"


class TestTwoZooAcceptance:
    def test_two_real_namespaces_serve_byte_identical_rankings(
            self, tiny_image_zoo, tiny_text_zoo):
        """Acceptance: a gateway with two distinct zoos over live HTTP
        answers rank with bodies byte-identical to the in-process
        SelectionService for the same (namespace, target)."""
        from repro.core import FeatureSet, TransferGraphConfig
        from repro.serving import SelectionGateway

        config = TransferGraphConfig(predictor="lr", embedding_dim=16,
                                     features=FeatureSet.everything())
        gateway = SelectionGateway()
        gateway.add_namespace("image", tiny_image_zoo, config)
        gateway.add_namespace("text", tiny_text_zoo, config)

        async def scenario():
            server = await serve(gateway)
            host, port = server.address
            exchanges = {}
            for namespace, zoo in (("image", tiny_image_zoo),
                                   ("text", tiny_text_zoo)):
                target = zoo.target_names()[0]
                body = json.dumps({"namespace": namespace,
                                   "target": target})
                await http_request(host, port, "POST", "/v1/rank",
                                   body=body)          # cold fit
                status, _, warm = await http_request(
                    host, port, "POST", "/v1/rank", body=body)
                exchanges[namespace] = (status, target, warm)
            await server.close()
            return exchanges

        try:
            exchanges = run(scenario())
            for namespace in ("image", "text"):
                status, target, body = exchanges[namespace]
                assert status == 200
                served = RankResponse.from_json(body)
                expected = gateway.service(namespace).rank(target)
                assert served.ranking == tuple(expected)  # bit-exact
                # and the wire encoding itself is stable
                assert RankResponse.from_json(
                    served.to_json()).to_json() == body.decode()
        finally:
            gateway.close()


class TestBackpressure:
    def test_saturated_queue_is_429_with_retry_after(self):
        """Concurrent cold ranks for distinct targets overflow a
        one-slot fit queue: shed requests get 429 + Retry-After."""
        async def scenario():
            gateway = stub_gateway(names=("alpha",), fit_seconds=0.3,
                                   max_pending_fits=1)
            try:
                server = await serve(gateway)
                host, port = server.address

                async def rank(target):
                    return await http_request(
                        host, port, "POST", "/v1/rank",
                        body=json.dumps({"namespace": "alpha",
                                         "target": target}))

                results = await asyncio.gather(rank("t0"), rank("t1"),
                                               rank("t2"))
                await server.close()
                return results
            finally:
                gateway.close()

        results = run(scenario())
        shed = [(headers, body) for status, headers, body in results
                if status == 429]
        served = [body for status, _, body in results if status == 200]
        assert len(served) >= 1 and len(shed) >= 1
        assert len(served) + len(shed) == 3
        for headers, body in shed:
            error = ErrorResponse.from_json(body)
            assert error.code == "queue_full"
            assert error.retry_after_s >= 0.5  # the router's default floor
            # integral header ceiling of the machine-readable hint
            assert int(headers["retry-after"]) >= 1


def _cold_rank_through(fleet, path="/v1/rank"):
    """One cold ``/v1/rank`` (or other POST ``path``) over a gateway that
    sends its fits to ``fleet``: (status, headers, body).  Closing the
    gateway closes the fleet."""
    async def scenario():
        gateway = SelectionGateway(fleet=fleet)
        try:
            gateway.add_namespace("alpha", StubZoo(),
                                  StubStrategy("agree", STUB_SCORES["agree"]))
            server = await serve(gateway)
            host, port = server.address
            answer = await http_request(
                host, port, "POST", path,
                body=json.dumps({"namespace": "alpha", "target": "t0"}))
            await server.close()
            return answer
        finally:
            gateway.close()

    return run(scenario())


class TestFitFleetUnavailable:
    """A fit the fleet could not run is a retryable 503, not a 500, and
    a shed slice of a 200 compare."""

    @pytest.mark.parametrize("error", [
        NoWorkersError("no live fit workers"),
        FitTimeoutError("fit exceeded its timeout"),
        FitWorkerCrashError("worker died mid-fit"),
    ], ids=lambda error: type(error).__name__)
    def test_retryable_fleet_failure_is_a_typed_503(self, error):
        status, headers, body = _cold_rank_through(
            FailingFleet("agree", error))
        assert status == 503
        assert headers["retry-after"] == "1"
        failure = ErrorResponse.from_json(body)
        assert failure.code == "fit_unavailable"
        assert failure.retry_after_s == 1.0

    def test_fleet_before_its_first_worker_is_a_typed_503(self):
        fleet = FleetCoordinator("127.0.0.1", 0)
        fleet.start()
        status, headers, body = _cold_rank_through(fleet)
        assert (status, headers["retry-after"]) == (503, "1")
        assert ErrorResponse.from_json(body).code == "fit_unavailable"

    @pytest.mark.parametrize("error", [
        FitPlaneError("strategy is not picklable"),
        WireError("malformed frame"),
    ], ids=lambda error: type(error).__name__)
    def test_unretryable_fleet_failure_stays_a_500(self, error):
        status, headers, body = _cold_rank_through(
            FailingFleet("agree", error))
        assert status == 500
        assert "retry-after" not in headers
        assert ErrorResponse.from_json(body).code == "internal"

    def test_compare_before_the_first_worker_sheds(self):
        """``/v1/compare`` answers 200 with the strategy marked shed."""
        fleet = FleetCoordinator("127.0.0.1", 0)
        fleet.start()
        status, _, body = _cold_rank_through(fleet, "/v1/compare")
        assert status == 200
        shed = CompareResponse.from_json(body).results["agree"]
        assert (shed.status, shed.retry_after_s) == ("shed", 1.0)


class TestStrategyRouting:
    """The additive strategy field, end to end over the wire."""

    def test_explicit_strategy_served_byte_identical(self):
        async def scenario():
            gateway = stub_gateway(names=("alpha",), strategies=("random",))
            try:
                server = await serve(gateway)
                host, port = server.address
                request = RankRequest(target="t0", namespace="alpha",
                                      strategy="random", top_k=2)
                status, _, body = await http_request(
                    host, port, "POST", "/v1/rank", body=request.to_json())
                await server.close()
                expected = gateway.service("alpha", "random") \
                    .handle(request).to_json()
                return status, body, expected
            finally:
                gateway.close()

        status, body, expected = run(scenario())
        assert status == 200
        assert body.decode() == expected          # wire == in-process
        response = RankResponse.from_json(body)
        assert response.strategy == "random"

    def test_healthz_lists_the_strategy_map(self):
        async def scenario():
            gateway = stub_gateway(names=("alpha",), strategies=("random",))
            try:
                server = await serve(gateway)
                host, port = server.address
                _, _, body = await http_request(host, port, "GET",
                                                "/v1/healthz")
                await server.close()
                return json.loads(body)
            finally:
                gateway.close()

        payload = run(scenario())
        assert payload["strategies"] == {
            "alpha": ["tg:lr,n2v,all", "random"]}

    def test_unknown_strategy_is_a_typed_404(self):
        async def scenario():
            gateway = stub_gateway(names=("alpha",))
            try:
                server = await serve(gateway)
                host, port = server.address
                status, _, body = await http_request(
                    host, port, "POST", "/v1/rank",
                    body='{"namespace": "alpha", "target": "t0", '
                         '"strategy": "nope"}')
                await server.close()
                return status, body
            finally:
                gateway.close()

        status, body = run(scenario())
        assert status == 404
        error = ErrorResponse.from_json(body)
        assert error.code == "unknown_strategy"
        assert "nope" in error.message

    def test_invalid_strategy_type_is_a_400(self):
        async def scenario():
            gateway = stub_gateway(names=("alpha",))
            try:
                server = await serve(gateway)
                host, port = server.address
                status, _, body = await http_request(
                    host, port, "POST", "/v1/rank",
                    body='{"namespace": "alpha", "target": "t0", '
                         '"strategy": 7}')
                await server.close()
                return status, body
            finally:
                gateway.close()

        status, body = run(scenario())
        assert status == 400
        assert ErrorResponse.from_json(body).code == "bad_request"


class TestCompareEndpoint:
    """POST /v1/compare: the strategy-map fan-out over the wire."""

    def test_compare_round_trip(self):
        from repro.serving import CompareResponse

        async def scenario():
            gateway = stub_gateway(names=("alpha",), strategies=("random",))
            try:
                server = await serve(gateway)
                host, port = server.address
                status, _, body = await http_request(
                    host, port, "POST", "/v1/compare",
                    body='{"namespace": "alpha", "target": "t0"}')
                await server.close()
                return status, body
            finally:
                gateway.close()

        status, body = run(scenario())
        assert status == 200
        response = CompareResponse.from_json(body)
        assert response.namespace == "alpha"
        assert response.target == "t0"
        assert response.reference == "tg:lr,n2v,all"
        assert set(response.results) == {"tg:lr,n2v,all", "random"}
        reference = response.results[response.reference]
        assert reference.status == "ok"
        assert reference.pearson == 1.0
        assert reference.top_k_overlap == 1.0
        assert "p95_ms" in reference.latency
        # the wire bytes survive a decode/encode cycle unchanged
        assert response.to_json() == body.decode()

    def test_compare_unknown_strategy_is_a_typed_404(self):
        async def scenario():
            gateway = stub_gateway(names=("alpha",))
            try:
                server = await serve(gateway)
                host, port = server.address
                status, _, body = await http_request(
                    host, port, "POST", "/v1/compare",
                    body='{"namespace": "alpha", "target": "t0", '
                         '"strategies": ["nope"]}')
                await server.close()
                return status, body
            finally:
                gateway.close()

        status, body = run(scenario())
        assert status == 404
        error = ErrorResponse.from_json(body)
        assert error.code == "unknown_strategy"
        assert "nope" in error.message

    def test_compare_empty_strategy_map_is_a_typed_400(self):
        async def scenario():
            gateway = stub_gateway(names=("alpha",))
            try:
                server = await serve(gateway)
                host, port = server.address
                status, _, body = await http_request(
                    host, port, "POST", "/v1/compare",
                    body='{"namespace": "alpha", "target": "t0", '
                         '"strategies": []}')
                await server.close()
                return status, body
            finally:
                gateway.close()

        status, body = run(scenario())
        assert status == 400
        error = ErrorResponse.from_json(body)
        assert error.code == "bad_request"
        assert "non-empty" in error.message

    def test_compare_unknown_namespace_is_a_typed_404(self):
        async def scenario():
            gateway = stub_gateway(names=("alpha",))
            try:
                server = await serve(gateway)
                host, port = server.address
                status, _, body = await http_request(
                    host, port, "POST", "/v1/compare",
                    body='{"namespace": "ghost", "target": "t0"}')
                await server.close()
                return status, body
            finally:
                gateway.close()

        status, body = run(scenario())
        assert status == 404
        assert ErrorResponse.from_json(body).code == "unknown_namespace"

    def test_compare_marks_shed_strategy_instead_of_429(self):
        from repro.serving import CompareResponse, QueueFullError

        async def scenario():
            gateway = stub_gateway(names=("alpha",), strategies=("random",))
            try:
                router = gateway.router("alpha", "random")

                async def shed_rank(target, top_k=None):
                    raise QueueFullError("queue full", retry_after_s=3.0)

                router.rank = shed_rank
                server = await serve(gateway)
                host, port = server.address
                status, _, body = await http_request(
                    host, port, "POST", "/v1/compare",
                    body='{"namespace": "alpha", "target": "t0"}')
                await server.close()
                return status, body
            finally:
                gateway.close()

        status, body = run(scenario())
        assert status == 200  # partial failure is still an answer
        response = CompareResponse.from_json(body)
        assert response.results["random"].status == "shed"
        assert response.results["random"].retry_after_s == 3.0
        assert response.results["tg:lr,n2v,all"].status == "ok"


# ---------------------------------------------------------------------- #
# request-parser fuzz: typed answer or a clean hang-up, never a 500
# ---------------------------------------------------------------------- #
_FUZZ_READ_TIMEOUT_S = 0.5
_TYPED_STATUSES = {200, 400, 404, 405, 413, 429}
#: every header name the server itself writes
_SERVER_HEADERS = {"content-type", "content-length", "connection",
                   "x-request-id", "retry-after", "allow"}
_INTERIM = b"HTTP/1.1 100 Continue\r\n\r\n"
_VALID_BODIES = {
    "/v1/rank": {"namespace": "alpha", "target": "t0", "top_k": 2},
    "/v1/score_batch": {"namespace": "alpha",
                        "pairs": [["m0", "t0"], ["m2", "t1"]]},
    "/v1/compare": {"namespace": "alpha", "target": "t0"},
}
_any_char = st.characters(exclude_categories=())  # surrogates too
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(_any_char, max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(_any_char, max_size=8), inner, max_size=3),
    max_leaves=6,
)
#: the one field a mutated request changes: a body key (existing or
#: not) or the X-Request-Id header
_FIELDS = st.sampled_from(["namespace", "target", "top_k", "strategy",
                           "request_id", "pairs", "kind", "bogus",
                           "X-Request-Id"])


def _post(path: str, body: bytes, request_id: str | None = None) -> bytes:
    head = [f"POST {path} HTTP/1.1", "Host: fuzz"]
    if request_id is not None:
        head.append(f"X-Request-Id: {request_id}")
    head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


async def _exchange_raw(gateway, payload: bytes):
    """Send ``payload``, half-close, read to EOF.

    The half-close ends a kept-alive connection as soon as the server
    has answered every request it could frame.

    Returns (raw response, exception-handler contexts, seconds waited).
    """
    loop = asyncio.get_running_loop()
    unhandled = []
    loop.set_exception_handler(lambda _loop, context: unhandled.append(context))
    server = GatewayHTTPServer(gateway, "127.0.0.1", 0,
                               read_timeout_s=_FUZZ_READ_TIMEOUT_S)
    await server.start()
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    started = loop.time()
    try:
        writer.write(payload)
        writer.write_eof()
        raw = await asyncio.wait_for(reader.read(),
                                     _FUZZ_READ_TIMEOUT_S + 1.0)
    finally:
        waited = loop.time() - started
        writer.close()
    # let the server's connection task finish and report any exception
    me = asyncio.current_task()
    for _ in range(1000):
        if all(t is me or t.done() for t in asyncio.all_tasks()):
            break
        await asyncio.sleep(0)
    await asyncio.sleep(0)
    await server.close()
    return raw, unhandled, waited


def _check_exchange(gateway, payload: bytes, complete: bool) -> list:
    """Send ``payload`` on one connection; every response must be typed.

    Returns the responses in order as (status, headers, body).
    """
    raw, unhandled, waited = asyncio.run(_exchange_raw(gateway, payload))
    assert unhandled == []
    assert waited <= _FUZZ_READ_TIMEOUT_S + 1.0
    responses = []
    while raw:
        if raw.startswith(_INTERIM):
            raw = raw[len(_INTERIM):]
            continue
        head, sep, raw = raw.partition(b"\r\n\r\n")
        assert sep
        status_line, *header_lines = head.decode("ascii").split("\r\n")
        status = int(status_line.split()[1])
        assert status in _TYPED_STATUSES
        headers = {}
        for line in header_lines:
            name, colon, value = line.partition(": ")
            assert colon and name.lower() in _SERVER_HEADERS, line
            assert value.isprintable(), line
            headers[name.lower()] = value
        length = int(headers["content-length"])
        body, raw = raw[:length], raw[length:]
        assert len(body) == length
        if status != 200:
            assert ErrorResponse.from_json(body).code
        elif headers["content-type"] == "application/json":
            if "kind" in json.loads(body):
                message_from_json(body)
        responses.append((status, headers, body))
    assert responses or not complete, "a complete request got no response"
    # nothing follows a response that announced the close
    assert all(headers["connection"] == "keep-alive"
               for _, headers, _ in responses[:-1])
    return responses


@pytest.fixture(scope="module")
def fuzz_gateway():
    gateway = stub_gateway(names=("alpha",))
    yield gateway
    gateway.close()


class TestParserFuzz:
    @settings(max_examples=150, deadline=None)
    @given(payload=st.binary(max_size=512)
           | st.builds(lambda path, body: _post(path, body),
                       st.sampled_from(sorted(_VALID_BODIES)),
                       st.binary(max_size=64)))
    @example(payload=_post("/v1/rank", b"[" * 3000))
    def test_arbitrary_bytes_get_a_typed_answer_or_a_hang_up(
            self, fuzz_gateway, payload):
        _check_exchange(fuzz_gateway, payload, complete=False)

    @settings(max_examples=150, deadline=None)
    @given(path=st.sampled_from(sorted(_VALID_BODIES)), field=_FIELDS,
           value=_json_values,
           header=st.text(st.characters(max_codepoint=255), max_size=16))
    @example(path="/v1/rank", field="request_id",
             value="abc\r\nSet-Cookie: pwned=1", header="")
    @example(path="/v1/rank", field="request_id", value="\ud800", header="")
    @example(path="/v1/rank", field="X-Request-Id", value=None,
             header="a\rInjected: 1")
    def test_one_mutated_field_gets_a_typed_answer(
            self, fuzz_gateway, path, field, value, header):
        body = dict(_VALID_BODIES[path])
        request_id = None
        if field == "X-Request-Id":
            request_id = header
        else:
            body[field] = value
        payload = _post(path, json.dumps(body).encode(), request_id)
        _check_exchange(fuzz_gateway, payload, complete=True)

    @settings(max_examples=150, deadline=None)
    @given(prefix=st.binary(max_size=256).map(lambda raw: (raw, False))
           | st.lists(st.builds(_post, st.sampled_from(sorted(_VALID_BODIES)),
                                st.binary(max_size=64)),
                      max_size=3).map(lambda posts: (b"".join(posts), True)))
    @example(prefix=(b"", True))
    @example(prefix=(b"GET /v1/healthz HTTP/1.1\r\nContent-Length: +0\r\n\r\n",
                     False))
    # the rank's request line becomes "0POST /v1/rank HTTP/1.1": one
    # complete request, answered 405 and kept alive, then EOF
    @example(prefix=(b"0", False))
    def test_arbitrary_bytes_then_a_rank_on_one_connection(
            self, fuzz_gateway, prefix):
        """Either the rank is answered correctly, or it never started a
        request of its own: its bytes were part of one the prefix began
        (answered, refused as unframeable, or cut off by EOF).  After
        whole requests (``framed``) it must be answered."""
        prefix, framed = prefix
        rank = _post("/v1/rank", json.dumps(_VALID_BODIES["/v1/rank"]).encode(),
                     request_id="fuzz-rank")
        responses = _check_exchange(fuzz_gateway, prefix + rank,
                                    complete=framed)
        answers = [response for response in responses
                   if response[1].get("x-request-id") == "fuzz-rank"]
        if framed:
            assert answers, "a rank after whole requests went unanswered"
        if answers:
            assert answers == responses[-1:]
            status, _, body = answers[0]
            assert status == 200
            expected = fuzz_gateway.service("alpha").rank("t0", top_k=2)
            assert RankResponse.from_json(body).ranking == tuple(expected)
