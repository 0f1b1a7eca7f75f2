"""Dependency-free asyncio HTTP front door over a SelectionGateway.

A deliberately small HTTP/1.1 server — ``asyncio.start_server`` plus a
hand-rolled request parser — so the repo keeps its numpy-only runtime
footprint while still being curl-able:

- ``POST /v1/rank``         body: :class:`~repro.serving.protocol.RankRequest`
- ``POST /v1/score_batch``  body: :class:`~repro.serving.protocol.ScoreBatchRequest`
- ``POST /v1/compare``      body: :class:`~repro.serving.protocol.CompareRequest`
- ``GET  /v1/stats``        :class:`~repro.serving.protocol.StatsResponse`
- ``GET  /v1/healthz``      liveness + served namespaces + measured fit cost
- ``GET  /v1/metrics``      Prometheus text exposition of the obs plane

Request correlation: every POST is traced under a ``request_id`` — the
body's optional ``request_id`` field if present, else an
``X-Request-Id`` header, else a server-minted id.  The id used is
echoed in the ``X-Request-Id`` response header; the response *body*
carries ``request_id`` only when the request body did (the protocol's
additive byte-stability rule).  Because it is echoed into a header, a
client-supplied id must be visible ASCII (``0x21``–``0x7E``): anything
else — a CR or LF that would split the header, a space, a non-ASCII
character — is a 400 ``bad_request`` before the request is traced or
dispatched.

A ``/v1/compare`` never answers 429: a strategy shed during the fan-out
is marked ``"shed"`` inside the 200 response (with its ``retry_after_s``
hint) while the rest of the strategy map still answers.

Every response body is a protocol message; every failure is a typed
:class:`~repro.serving.protocol.ErrorResponse`:

====================================  ======  =======================
condition                             status  error code
====================================  ======  =======================
malformed JSON / failed validation    400     ``bad_request``
unknown model in a pair               400     ``unknown_model``
unknown namespace                     404     ``unknown_namespace``
unknown target dataset                404     ``unknown_target``
unknown strategy spec                 404     ``unknown_strategy``
unknown route                         404     ``not_found``
wrong method on a route               405     ``method_not_allowed``
body over the byte cap                413     ``payload_too_large``
cold-fit queue saturated              429     ``queue_full`` (+
                                              ``Retry-After`` header)
anything else                         500     ``internal``
====================================  ======  =======================

The 429 carries the router's adaptive backpressure hint twice: machine-
readable in ``ErrorResponse.retry_after_s`` (fractional seconds) and as
the integral ``Retry-After`` header HTTP clients already understand.
Connections are single-request (``Connection: close``): the server
optimises for correctness and testability, not keep-alive throughput.

Handlers never block the event loop: fits and artifact I/O run behind
the router's executor (the ``async-blocking`` analysis rule enforces
it).
"""

from __future__ import annotations

import asyncio
import json
import math
import re

from repro.obs import EXPOSITION_CONTENT_TYPE
from repro.serving.gateway import (
    SelectionGateway,
    UnknownModelError,
    UnknownNamespaceError,
    UnknownStrategyError,
    UnknownTargetError,
)
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    CompareRequest,
    ErrorResponse,
    ProtocolError,
    RankRequest,
    ScoreBatchRequest,
)
from repro.serving.router import QueueFullError

__all__ = ["GatewayHTTPServer", "MAX_BODY_BYTES"]

#: request-body cap; a selection request has no business being bigger
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
}

#: keep header parsing bounded: request line + each header line
_MAX_LINE_BYTES = 8 * 1024
_MAX_HEADERS = 64

#: a client-supplied request id is echoed in a response header
_HEADER_SAFE_ID = re.compile(r"[\x21-\x7e]+")


class _HTTPError(Exception):
    """Internal: carries a ready-to-send (status, ErrorResponse)."""

    def __init__(
        self,
        status: int,
        error: ErrorResponse,
        headers: tuple[tuple[str, str], ...] = (),
    ):
        super().__init__(error.message)
        self.status = status
        self.error = error
        self.headers = headers


def _error_for(exc: Exception) -> _HTTPError:
    """Map a serving-layer exception to its typed HTTP failure."""
    if isinstance(exc, QueueFullError):
        hint = float(exc.retry_after_s)
        return _HTTPError(
            429,
            ErrorResponse(
                code="queue_full",
                message="cold-fit queue is full; retry later",
                retry_after_s=hint,
            ),
            headers=(("Retry-After", str(max(1, math.ceil(hint)))),),
        )
    if isinstance(exc, UnknownNamespaceError):
        return _HTTPError(
            404, ErrorResponse(code="unknown_namespace", message=str(exc))
        )
    if isinstance(exc, UnknownTargetError):
        return _HTTPError(404, ErrorResponse(code="unknown_target", message=str(exc)))
    if isinstance(exc, UnknownStrategyError):
        return _HTTPError(404, ErrorResponse(code="unknown_strategy", message=str(exc)))
    if isinstance(exc, UnknownModelError):
        return _HTTPError(400, ErrorResponse(code="unknown_model", message=str(exc)))
    if isinstance(exc, ProtocolError):
        return _HTTPError(400, ErrorResponse(code="bad_request", message=str(exc)))
    # Anything else is a server bug: report the class of failure only,
    # never internals (messages/tracebacks stay in server logs).
    return _HTTPError(
        500, ErrorResponse(code="internal", message="internal server error")
    )


class GatewayHTTPServer:
    """Serve one :class:`SelectionGateway` over loopback (or any host).

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    :meth:`start` to learn it (how the tests and the benchmark run).
    """

    def __init__(
        self,
        gateway: SelectionGateway,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        max_body_bytes: int = MAX_BODY_BYTES,
        read_timeout_s: float = 30.0,
    ):
        self.gateway = gateway
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self.read_timeout_s = read_timeout_s
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "GatewayHTTPServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        async def read_request():
            method, path, headers = await self._read_head(reader)
            if headers.get("expect", "").lower() == "100-continue":
                # curl sends Expect for bodies over ~1 KB and waits up
                # to a second for this interim reply before proceeding.
                writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                await writer.drain()
            body = await self._read_body(reader, headers)
            return method, path, headers, body

        path = "-"  # for the response counter when parsing fails early
        try:
            try:
                # The timeout bounds the *read* phase only: a connection
                # that never sends a full request (port scanner,
                # slowloris) must not pin a task and fd forever.
                method, path, headers, body = await asyncio.wait_for(
                    read_request(), timeout=self.read_timeout_s
                )
                status, payload, extra = await self._route(method, path, headers, body)
            except _HTTPError as exc:
                status, payload, extra = exc.status, exc.error, exc.headers
            except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
                # Client went away or never finished the request
                # (probe, reset, half-close, slowloris): nothing to
                # answer — and emphatically not a 500.
                return
            except Exception as exc:  # noqa: BLE001 - typed 500 boundary
                mapped = _error_for(exc)
                status, payload, extra = (mapped.status, mapped.error, mapped.headers)
            self.gateway.obs.record_http_response(path, status)
            await self._write_response(writer, status, payload, extra)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away while we wrote the response
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - teardown race
                pass

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str]]:
        request_line = await self._read_line(reader)
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HTTPError(
                400,
                ErrorResponse(
                    code="bad_request", message="malformed HTTP request line"
                ),
            )
        method, raw_path = parts[0].upper(), parts[1]
        path = raw_path.split("?", 1)[0]

        headers: dict[str, str] = {}
        # +1: the terminating blank line needs its own iteration, so a
        # request with exactly _MAX_HEADERS headers is still accepted
        for _ in range(_MAX_HEADERS + 1):
            line = await self._read_line(reader)
            if not line:
                return method, path, headers
            name, sep, value = line.partition(":")
            if not sep:
                raise _HTTPError(
                    400,
                    ErrorResponse(code="bad_request", message="malformed HTTP header"),
                )
            headers[name.strip().lower()] = value.strip()
        raise _HTTPError(
            400, ErrorResponse(code="bad_request", message="too many HTTP headers")
        )

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> str:
        try:
            raw = await reader.readuntil(b"\n")
        except asyncio.LimitOverrunError:
            raise _HTTPError(
                400, ErrorResponse(code="bad_request", message="HTTP line too long")
            ) from None
        if len(raw) > _MAX_LINE_BYTES:
            raise _HTTPError(
                400, ErrorResponse(code="bad_request", message="HTTP line too long")
            )
        return raw.decode("latin-1").rstrip("\r\n")

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: dict[str, str]
    ) -> bytes:
        raw_length = headers.get("content-length")
        if raw_length is None:
            return b""
        try:
            length = int(raw_length)
            if length < 0:
                raise ValueError
        except ValueError:
            raise _HTTPError(
                400,
                ErrorResponse(
                    code="bad_request",
                    message="Content-Length must be a non-negative integer",
                ),
            ) from None
        if length > self.max_body_bytes:
            raise _HTTPError(
                413,
                ErrorResponse(
                    code="payload_too_large",
                    message=f"request body exceeds {self.max_body_bytes} bytes",
                ),
            )
        return await reader.readexactly(length) if length else b""

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    async def _route(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ):
        routes = {
            "/v1/rank": ("POST", self._post_rank),
            "/v1/score_batch": ("POST", self._post_score_batch),
            "/v1/compare": ("POST", self._post_compare),
            "/v1/stats": ("GET", self._get_stats),
            "/v1/healthz": ("GET", self._get_healthz),
            "/v1/metrics": ("GET", self._get_metrics),
        }
        entry = routes.get(path)
        if entry is None:
            raise _HTTPError(
                404, ErrorResponse(code="not_found", message=f"no route {path!r}")
            )
        expected_method, handler = entry
        if method != expected_method:
            raise _HTTPError(
                405,
                ErrorResponse(
                    code="method_not_allowed",
                    message=f"{path} expects {expected_method}",
                ),
                headers=(("Allow", expected_method),),
            )
        return await handler(headers, body)

    def _request_id(self, request, headers: dict[str, str]) -> str:
        """Body field > X-Request-Id header > server-minted id.

        A client-supplied id goes back out in the ``X-Request-Id``
        header, so one outside visible ASCII is refused here.
        """
        rid = request.request_id or headers.get("x-request-id")
        if not rid:
            return self.gateway.obs.new_request_id()
        if not _HEADER_SAFE_ID.fullmatch(rid):
            raise _HTTPError(
                400,
                ErrorResponse(
                    code="bad_request",
                    message="request_id must be visible ASCII (0x21-0x7E)",
                ),
            )
        return rid

    async def _post_rank(self, headers: dict[str, str], body: bytes):
        request = RankRequest.from_json(body)  # ProtocolError here -> 400
        rid = self._request_id(request, headers)
        response = await self._dispatch(self.gateway.rank(request, request_id=rid))
        return 200, response, (("X-Request-Id", rid),)

    async def _post_score_batch(self, headers: dict[str, str], body: bytes):
        request = ScoreBatchRequest.from_json(body)
        rid = self._request_id(request, headers)
        response = await self._dispatch(
            self.gateway.score_batch(request, request_id=rid)
        )
        return 200, response, (("X-Request-Id", rid),)

    async def _post_compare(self, headers: dict[str, str], body: bytes):
        request = CompareRequest.from_json(body)
        rid = self._request_id(request, headers)
        response = await self._dispatch(self.gateway.compare(request, request_id=rid))
        return 200, response, (("X-Request-Id", rid),)

    @staticmethod
    async def _dispatch(coro):
        """A ProtocolError *after* parsing means the server built an
        invalid response (e.g. a non-finite score) — that's a 500, not
        the client's fault."""
        try:
            return await coro
        except ProtocolError as exc:
            raise _HTTPError(
                500, ErrorResponse(code="internal", message="internal server error")
            ) from exc

    async def _get_stats(self, headers: dict[str, str], body: bytes):
        return 200, self.gateway.stats(), ()

    async def _get_healthz(self, headers: dict[str, str], body: bytes):
        payload = {
            "status": "ok",
            "protocol": PROTOCOL_VERSION,
            "namespaces": self.gateway.namespaces(),
            "strategies": {
                name: self.gateway.strategies(name)
                for name in self.gateway.namespaces()
            },
            "fit_ms": self.gateway.fit_costs(),
        }
        fleet = self.gateway.fleet_summary()
        if fleet is not None:
            payload["fleet"] = fleet
        return 200, payload, ()

    async def _get_metrics(self, headers: dict[str, str], body: bytes):
        # str payloads are written verbatim as Prometheus exposition text
        return 200, self.gateway.obs.render_metrics(), ()

    # ------------------------------------------------------------------ #
    # response writing
    # ------------------------------------------------------------------ #
    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload,
        extra: tuple[tuple[str, str], ...],
    ) -> None:
        if isinstance(payload, str):  # /v1/metrics exposition text
            body = payload.encode()
            content_type = EXPOSITION_CONTENT_TYPE
        else:
            if hasattr(payload, "to_json"):
                body = payload.to_json().encode()
            else:
                body = json.dumps(
                    payload, sort_keys=True, separators=(",", ":")
                ).encode()
            content_type = "application/json"
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head.extend(f"{name}: {value}" for name, value in extra)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()
