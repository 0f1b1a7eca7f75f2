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

A ``/v1/compare`` never answers 429 or 503: a strategy shed by its
cold-fit queue, or whose fleet fit failed retryably, is marked
``"shed"`` inside the 200 response (with its ``retry_after_s`` hint)
while the rest of the strategy map still answers.

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
fit fleet has no worker, or a fleet   503     ``fit_unavailable`` (+
fit timed out or lost its worker              ``Retry-After: 1``)
anything else                         500     ``internal``
====================================  ======  =======================

The 429 carries the router's adaptive backpressure hint twice: machine-
readable in ``ErrorResponse.retry_after_s`` (fractional seconds) and as
the integral ``Retry-After`` header HTTP clients already understand.
The 503 carries a fixed one-second hint the same two ways.  Other fleet
failures (an unpicklable strategy, a malformed frame) stay 500s: a
retry cannot help them.

Connections persist.  An ``HTTP/1.1`` request keeps its connection open
unless it sends ``Connection: close``; any other version closes unless
it sends ``Connection: keep-alive``.  Every response carries
``Connection: close`` when the server closes after it and
``Connection: keep-alive`` otherwise.  Pipelined requests are answered
in order, one at a time.  Each request's read phase, the idle wait
before its first byte included, is bounded by ``read_timeout_s``: a
connection that does not deliver a whole request in time is dropped
without a response.

Framing is strict (RFC 9112 §6).  ``Content-Length`` must be ASCII
digits, repeated ``Content-Length`` values must agree, and any
``Transfer-Encoding`` is a 400 ``bad_request``, because the server
implements no transfer coding.  A request whose bytes cannot be framed
(a malformed request line or header, a line over 8 KiB, more than 64
headers, a bad ``Content-Length``, a ``Transfer-Encoding``, or a 413
whose body is left unread) is answered and then the connection closes:
where a next request would start is unknown.  A request that was read
completely keeps its connection, whatever the answer.
:meth:`GatewayHTTPServer.close` stops accepting, closes idle
connections at once, and lets an in-flight request finish with
``Connection: close``.

Handlers never block the event loop: fits and artifact I/O run behind
the router's executor (the ``async-blocking`` analysis rule enforces
it).
"""

from __future__ import annotations

import asyncio
import json
import math
import re

from repro.fleet.errors import FIT_RETRY_AFTER_S, RETRYABLE_FIT_ERRORS
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
    503: "Service Unavailable",
}

#: keep header parsing bounded: request line + each header line
_MAX_LINE_BYTES = 8 * 1024
_MAX_HEADERS = 64

#: a header field name is a token (RFC 9110 §5.1): no whitespace, so
#: ``Content-Length : 5`` or an obs-folded line is malformed
_TOKEN = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")
#: Content-Length = 1*DIGIT, ASCII only (RFC 9110 §8.6)
_DIGITS = re.compile(r"[0-9]+")

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


def _bad_request(message: str) -> _HTTPError:
    return _HTTPError(400, ErrorResponse(code="bad_request", message=message))


def _error_for(exc: Exception) -> _HTTPError:
    """Map a serving-layer exception to its typed HTTP failure."""
    if isinstance(exc, _HTTPError):
        return exc
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
    if isinstance(exc, RETRYABLE_FIT_ERRORS):
        return _HTTPError(
            503,
            ErrorResponse(
                code="fit_unavailable",
                message="no fit worker could fit this target; retry later",
                retry_after_s=FIT_RETRY_AFTER_S,
            ),
            headers=(("Retry-After", str(math.ceil(FIT_RETRY_AFTER_S))),),
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
        return _bad_request(str(exc))
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
        self._closing = False
        #: every live connection's handler task, and the writers of those
        #: reading a request (idle ones included), which close() drops
        self._connections: set[asyncio.Task] = set()
        self._reading: set[asyncio.StreamWriter] = set()
        #: path -> (method, handler)
        self._routes = {
            "/v1/rank": ("POST", self._post_rank),
            "/v1/score_batch": ("POST", self._post_score_batch),
            "/v1/compare": ("POST", self._post_compare),
            "/v1/stats": ("GET", self._get_stats),
            "/v1/healthz": ("GET", self._get_healthz),
            "/v1/metrics": ("GET", self._get_metrics),
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._closing = False
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
        """Serve until cancelled, then :meth:`close`.

        Not ``asyncio.Server.serve_forever``: from Python 3.12.1 its
        cancellation waits for every open connection, so one idle
        keep-alive client would hold shutdown for ``read_timeout_s``.
        """
        if self._server is None:
            await self.start()
        try:
            await asyncio.get_running_loop().create_future()
        finally:
            await self.close()

    async def close(self) -> None:
        """Stop accepting, close idle connections, drain in-flight ones.

        A connection waiting for (or part-way through) a request is
        closed at once, without a response: its read sees EOF, so its
        handler ends normally rather than cancelled.  A request already
        read is answered with ``Connection: close``.
        """
        if self._server is None:
            return
        self._closing = True
        self._server.close()
        for writer in self._reading:
            writer.close()
        await asyncio.gather(*self._connections, return_exceptions=True)
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
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while not self._closing and await self._serve_one(reader, writer):
                pass
        except ConnectionError:
            pass  # client went away while we wrote a response
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - teardown race
                pass
            finally:
                # only now: close() must wait for a connection still
                # closing, or loop teardown cancels it mid-close
                self._connections.discard(task)

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Read, route and answer one request; True keeps the connection."""
        self._reading.add(writer)
        try:
            # The timeout bounds each request's *read* phase, the idle
            # wait before its first byte included: a connection that
            # never sends a full request (port scanner, slowloris, a
            # forgotten keep-alive client) must not pin a task and fd.
            method, path, headers, body, keep_alive = await asyncio.wait_for(
                self._read_request(reader, writer), timeout=self.read_timeout_s
            )
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            # Client went away or never finished the request (probe,
            # reset, half-close, slowloris): nothing to answer — and
            # emphatically not a 500.
            return False
        except Exception as exc:  # noqa: BLE001 - typed answer, then close
            # Bytes that cannot be framed: where a next request would
            # start is unknown, so answer this one and close.
            failure = _error_for(exc)
            self.gateway.obs.record_http_response("-", failure.status)
            await self._write_response(
                writer, failure.status, failure.error, failure.headers, keep_alive=False
            )
            return False
        finally:
            self._reading.discard(writer)
        try:
            status, payload, extra = await self._route(method, path, headers, body)
        except Exception as exc:  # noqa: BLE001 - typed 500 boundary
            failure = _error_for(exc)
            status, payload, extra = failure.status, failure.error, failure.headers
        keep_alive = keep_alive and not self._closing
        # A path that is no route shares the label "-" with framing
        # errors: the client picks the path, and each distinct label
        # would be a metric series kept for the life of the process.
        label = path if path in self._routes else "-"
        self.gateway.obs.record_http_response(label, status)
        await self._write_response(writer, status, payload, extra, keep_alive)
        return keep_alive

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> tuple[str, str, dict[str, str], bytes, bool]:
        """One framed request: (method, path, headers, body, keep-alive)."""
        method, path, version, headers = await self._read_head(reader)
        length = self._content_length(headers)
        if headers.get("expect", "").lower() == "100-continue":
            # curl sends Expect for bodies over ~1 KB and waits up to a
            # second for this interim reply before proceeding.
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await writer.drain()
        body = await reader.readexactly(length) if length else b""
        connection = headers.get("connection", "").lower()
        options = {option.strip(" \t") for option in connection.split(",")}
        if version == "HTTP/1.1":
            return method, path, headers, body, "close" not in options
        return method, path, headers, body, "keep-alive" in options

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, str, dict[str, str]]:
        request_line = await self._read_line(reader)
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _bad_request("malformed HTTP request line")
        method, raw_path, version = parts
        path = raw_path.split("?", 1)[0]

        # A repeated field's values are joined into one comma-separated
        # list (RFC 9110 §5.3), so repeated Content-Length values that
        # differ cannot hide behind a last-one-wins dict.
        headers: dict[str, str] = {}
        # +1: the terminating blank line needs its own iteration, so a
        # request with exactly _MAX_HEADERS headers is still accepted
        for _ in range(_MAX_HEADERS + 1):
            line = await self._read_line(reader)
            if not line:
                return method.upper(), path, version, headers
            name, sep, value = line.partition(":")
            if not sep or not _TOKEN.fullmatch(name):
                raise _bad_request("malformed HTTP header")
            name, value = name.lower(), value.strip(" \t")
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
        raise _bad_request("too many HTTP headers")

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> str:
        try:
            raw = await reader.readuntil(b"\n")
        except asyncio.LimitOverrunError:
            raise _bad_request("HTTP line too long") from None
        if len(raw) > _MAX_LINE_BYTES:
            raise _bad_request("HTTP line too long")
        return raw.decode("latin-1").rstrip("\r\n")

    def _content_length(self, headers: dict[str, str]) -> int:
        """The body length the head frames (RFC 9112 §6), else a typed 400/413."""
        if "transfer-encoding" in headers:
            raise _bad_request("Transfer-Encoding is not supported")
        raw = headers.get("content-length")
        if raw is None:
            return 0
        values = {value.strip(" \t") for value in raw.split(",")}
        value = values.pop()
        if values or not _DIGITS.fullmatch(value):
            raise _bad_request("Content-Length must be one non-negative integer")
        digits = value.lstrip("0") or "0"
        # lengths first: int() refuses strings past ~4300 digits
        limit = self.max_body_bytes
        if len(digits) > len(str(limit)) or int(digits) > limit:
            raise _HTTPError(
                413,
                ErrorResponse(
                    code="payload_too_large",
                    message=f"request body exceeds {limit} bytes",
                ),
            )
        return int(digits)

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    async def _route(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ):
        entry = self._routes.get(path)
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
            raise _bad_request("request_id must be visible ASCII (0x21-0x7E)")
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
        keep_alive: bool,
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
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(f"{name}: {value}" for name, value in extra)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()
