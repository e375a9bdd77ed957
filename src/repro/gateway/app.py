"""The gateway's handler layer: HTTP/WS routes over the session service.

:class:`GatewayServer` binds an asyncio TCP server and maps requests
onto :class:`~repro.gateway.service.GatewayService` calls.  The routes:

====== ============================ =======================================
verb   path                         meaning
====== ============================ =======================================
POST   ``/v1/transactions``         submit one transaction (202 Accepted)
GET    ``/v1/transactions/<txid>``  commit status of one transaction
GET    ``/v1/state/<key>``          executed-state read (followed chain)
GET    ``/v1/chain``                applied chain summary
GET    ``/v1/health``               liveness/quorum summary
GET    ``/v1/metrics``              registry snapshot + windowed latency percentiles
GET    ``/v1/cluster/metrics``      in-band scrape of every live replica
GET    ``/v1/ws``                   WebSocket commit-event subscription
====== ============================ =======================================

Every rejection is a structured JSON error envelope; rate-limited
submissions carry a ``Retry-After`` header (429), capacity rejections a
503, duplicate txids a 409.  Clients identify themselves with an
``x-client-id`` header (falling back to the peer address), which is the
key admission control and rate limiting operate on.

A WebSocket subscriber that cannot keep up with the commit stream is
*evicted*: the service replaces its oldest undelivered event with a
sentinel and the handler closes the socket with code 1013
("try again later") — backpressure ends at the gateway, never inside
the consensus cluster.
"""

from __future__ import annotations

import asyncio
import json

from repro.gateway.http import (
    CLOSE_MESSAGE_TOO_BIG,
    CLOSE_TRY_AGAIN_LATER,
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    ProtocolError,
    Request,
    encode_close_frame,
    encode_ws_frame,
    error_payload,
    read_request,
    read_ws_frame,
    render_response,
    websocket_handshake_response,
)
from repro.gateway.ratelimit import AdmissionDenied, RateLimited
from repro.gateway.service import EVICTED, DuplicateTransaction, GatewayService
from repro.smr.mempool import Transaction

#: KVStore operations a client may submit through the gateway.
ALLOWED_OPS = ("set", "del", "incr", "noop")

def parse_transaction(payload: object) -> Transaction:
    """Validate one submission body into a Transaction.

    Expected shape: ``{"txid": str, "op": [kind, ...args]}`` with a
    kind from :data:`ALLOWED_OPS`.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("submission body must be a JSON object")
    txid = payload.get("txid")
    if not isinstance(txid, str) or not txid or len(txid) > 128:
        raise ProtocolError("'txid' must be a non-empty string of at most 128 chars")
    op = payload.get("op")
    if not isinstance(op, list) or not op or not isinstance(op[0], str):
        raise ProtocolError("'op' must be a non-empty array starting with the op kind")
    if op[0] not in ALLOWED_OPS:
        raise ProtocolError(f"unknown op kind {op[0]!r}; allowed: {', '.join(ALLOWED_OPS)}")
    return Transaction(txid=txid, op=tuple(op))


class GatewayServer:
    """Asyncio TCP server exposing the gateway API."""

    def __init__(self, service: GatewayService, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.Server | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._on_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection loop ------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        peer_id = f"{peer[0]}:{peer[1]}" if peer else "unknown"
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    writer.write(
                        render_response(
                            400,
                            error_payload("bad_request", str(exc)),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                if request.wants_websocket:
                    await self._serve_websocket(request, reader, writer, peer_id)
                    break
                if request.path.split("?", 1)[0] == "/v1/cluster/metrics":
                    # The one route that must await the cluster (an
                    # in-band MetricsRequest round over the client
                    # ports), so it bypasses the sync dispatch table.
                    response = await self._cluster_metrics(request)
                else:
                    response = self._dispatch(request, peer_id)
                writer.write(response)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    def _client_id(self, request: Request, peer_id: str) -> str:
        return request.headers.get("x-client-id", peer_id)

    # -- HTTP routes ----------------------------------------------------------

    def _dispatch(self, request: Request, peer_id: str) -> bytes:
        try:
            return self._route(request, peer_id)
        except ProtocolError as exc:
            return render_response(400, error_payload("bad_request", str(exc)))
        except RateLimited as exc:
            return render_response(
                429,
                error_payload("rate_limited", str(exc), retry_after=exc.retry_after),
                extra_headers={"Retry-After": f"{exc.retry_after:.3f}"},
            )
        except AdmissionDenied as exc:
            return render_response(503, error_payload(exc.code, str(exc)))
        except DuplicateTransaction as exc:
            return render_response(409, error_payload("duplicate_txid", str(exc)))

    def _route(self, request: Request, peer_id: str) -> bytes:
        method, path = request.method, request.path.split("?", 1)[0]
        if path == "/v1/transactions" and method == "POST":
            return self._submit(request, peer_id)
        if path.startswith("/v1/transactions/") and method == "GET":
            return self._txn_status(path.removeprefix("/v1/transactions/"))
        if path.startswith("/v1/state/") and method == "GET":
            return self._read_state(path.removeprefix("/v1/state/"))
        if path == "/v1/chain" and method == "GET":
            return render_response(200, self.service.chain_history())
        if path == "/v1/health" and method == "GET":
            return render_response(200, self.service.health())
        if path == "/v1/metrics" and method == "GET":
            return render_response(200, self.service.metrics())
        if path in ("/v1/transactions", "/v1/chain", "/v1/health", "/v1/metrics"):
            return render_response(
                405, error_payload("method_not_allowed", f"{method} not allowed on {path}")
            )
        return render_response(404, error_payload("not_found", f"no route for {path}"))

    async def _cluster_metrics(self, request: Request) -> bytes:
        if request.method != "GET":
            return render_response(
                405,
                error_payload(
                    "method_not_allowed",
                    f"{request.method} not allowed on /v1/cluster/metrics",
                ),
            )
        try:
            payload = await self.service.cluster_metrics(timeout=2.0)
        except (OSError, ConnectionError, asyncio.TimeoutError):
            return render_response(
                503, error_payload("scrape_failed", "could not scrape the replica cluster")
            )
        return render_response(200, payload)

    def _submit(self, request: Request, peer_id: str) -> bytes:
        txn = parse_transaction(request.json())
        status = self.service.submit(self._client_id(request, peer_id), txn)
        return render_response(
            202,
            {
                "txid": status.txid,
                "status": "pending",
                "quorum": self.service.config.ack_quorum,
            },
        )

    def _txn_status(self, txid: str) -> bytes:
        view = self.service.txn_view(txid)
        if view is None:
            return render_response(
                404, error_payload("unknown_txid", f"transaction {txid!r} was never submitted")
            )
        return render_response(200, view)

    def _read_state(self, key: str) -> bytes:
        view = self.service.read_state(key)
        if not view.found:
            return render_response(
                404,
                error_payload(
                    "unknown_key",
                    f"key {key!r} is absent from the executed state",
                    chain_length=view.chain_length,
                    supported_by=view.supported_by,
                ),
            )
        return render_response(
            200,
            {
                "key": key,
                "value": view.value,
                "tip_slot": view.tip_slot,
                "chain_length": view.chain_length,
                "supported_by": view.supported_by,
            },
        )

    # -- WebSocket subscription -----------------------------------------------

    async def _serve_websocket(
        self,
        request: Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer_id: str,
    ) -> None:
        writer.write(websocket_handshake_response(request.headers["sec-websocket-key"]))
        await writer.drain()
        subscription = self.service.subscribe()
        control = asyncio.ensure_future(self._ws_control_loop(reader, writer))
        try:
            while not control.done():
                getter = asyncio.ensure_future(subscription.next_event())
                done, _pending = await asyncio.wait(
                    {getter, control}, return_when=asyncio.FIRST_COMPLETED
                )
                if getter not in done:
                    getter.cancel()
                    break  # peer closed or died; stop streaming
                event = getter.result()
                if event is EVICTED:
                    writer.write(encode_close_frame(CLOSE_TRY_AGAIN_LATER, "slow consumer"))
                    await writer.drain()
                    break
                writer.write(
                    encode_ws_frame(
                        OP_TEXT,
                        json.dumps(event, separators=(",", ":"), sort_keys=True).encode("utf-8"),
                    )
                )
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            self.service.unsubscribe(subscription)
            control.cancel()
            if control.done() and not control.cancelled():
                control.exception()  # retrieved: a peer's dropped socket ends only its stream

    async def _ws_control_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer pings and notice the peer closing; returns on close,
        after a 1009 close frame if the peer sent an oversize frame."""
        while True:
            try:
                frame = await read_ws_frame(reader)
            except ProtocolError:
                writer.write(encode_close_frame(CLOSE_MESSAGE_TOO_BIG, "frame too large"))
                await writer.drain()
                return
            if frame is None:
                return
            opcode, payload = frame
            if opcode == OP_PING:
                writer.write(encode_ws_frame(OP_PONG, payload))
                await writer.drain()
            elif opcode == OP_CLOSE:
                writer.write(encode_close_frame(1000))
                await writer.drain()
                return
