"""Gateway handler layer: routes, structured errors, the WS stream.

In-process tests over real localhost sockets: a :class:`GatewayServer`
bound to an ephemeral port with the session service running over a
stub pool (no replica processes), exercised through the same
``HTTPClient``/``WSClient`` helpers the load generator uses — both
ends of the hand-rolled wire get covered at once.
"""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.gateway.app import GatewayServer, parse_transaction
from repro.gateway.http import (
    MAX_BODY_BYTES,
    HTTPClient,
    ProtocolError,
    WSClient,
    read_request,
    websocket_accept_value,
)
from repro.gateway.service import GatewayConfig, GatewayService
from repro.multishot.block import GENESIS_DIGEST, Block
from repro.net.codec import WIRE_CODEC, ClientSubmit, ClientSubmitBatch, CommitAck, MetricsReply
from repro.smr.mempool import Transaction

from tests.test_gateway_service import FakeClock, StubPool, _chain, _reply


def _commit(service: GatewayService, txid: str, *, slot: int = 1) -> None:
    for node_id in range(service.config.ack_quorum):
        service._on_ack(node_id, CommitAck(node_id=node_id, txid=txid, slot=slot))


async def _started_server(**overrides) -> tuple[GatewayServer, GatewayService, StubPool]:
    pool = StubPool(4)
    defaults = dict(n=4, rate=10.0, burst=2.0)
    defaults.update(overrides)
    service = GatewayService(pool, GatewayConfig(**defaults), clock=FakeClock())
    await service.start(start_consensus=False)
    server = GatewayServer(service)
    await server.start()
    return server, service, pool


def _submission(i: int) -> dict:
    return {"txid": f"t{i}", "op": ["set", "k", i]}


def run(scenario) -> None:
    asyncio.run(scenario())


def _watch_loop_errors() -> list[dict]:
    """What the running loop would log as unhandled, collected instead."""
    errors: list[dict] = []
    asyncio.get_running_loop().set_exception_handler(lambda _loop, context: errors.append(context))
    return errors


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


# -- request validation -------------------------------------------------------


def test_parse_transaction_validates_shape():
    txn = parse_transaction({"txid": "a", "op": ["set", "k", 1]})
    assert txn.txid == "a" and txn.op == ("set", "k", 1)
    for bad in (
        "not a dict",
        {"op": ["set", "k", 1]},  # no txid
        {"txid": "", "op": ["set", "k", 1]},  # empty txid
        {"txid": "x" * 200, "op": ["noop"]},  # oversized txid
        {"txid": "a"},  # no op
        {"txid": "a", "op": []},  # empty op
        {"txid": "a", "op": "set"},  # not an array
        {"txid": "a", "op": ["shutdown"]},  # unknown kind
        # No wire encoding: the pool's flush would raise on these.
        {"txid": "a", "op": ["set", "k", [1, 2]]},  # nested array
        {"txid": "a", "op": ["set", "k", {"x": 1}]},  # nested object
        {"txid": "a", "op": ["set", "\ud800", 1]},  # lone surrogate
        {"txid": "\ud800", "op": ["noop"]},
    ):
        with pytest.raises(ProtocolError):
            parse_transaction(bad)


@pytest.mark.parametrize(
    "raw",
    [
        b"POST /v1/transactions HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        b"POST /v1/transactions HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}",
        b"POST /v1/transactions HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"tx",  # EOF
    ],
    ids=["not-a-number", "negative", "body-cut-short"],
)
def test_read_request_turns_bad_framing_into_a_protocol_error(raw):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        with pytest.raises(ProtocolError):
            await read_request(reader)

    run(scenario)


def test_websocket_accept_value_matches_rfc6455_example():
    # The worked example from RFC 6455 §1.3.
    assert (
        websocket_accept_value("dGhlIHNhbXBsZSBub25jZQ==")
        == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
    )


# -- HTTP routes --------------------------------------------------------------


def test_submit_accepts_and_tracks_until_quorum_commit():
    async def scenario():
        server, service, pool = await _started_server(rate=1000.0, burst=1000.0)
        client = HTTPClient(server.host, server.port)
        accepted = await client.request(
            "POST", "/v1/transactions", payload=_submission(0), headers={"x-client-id": "a"}
        )
        assert accepted.status == 202
        assert accepted.json()["status"] == "pending"
        pending = await client.request("GET", "/v1/transactions/t0")
        assert pending.status == 200 and pending.json()["status"] == "pending"
        _commit(service, "t0", slot=4)
        committed = await client.request("GET", "/v1/transactions/t0")
        body = committed.json()
        assert body["status"] == "committed" and body["slot"] == 4
        unknown = await client.request("GET", "/v1/transactions/nope")
        assert unknown.status == 404
        assert unknown.json()["error"]["code"] == "unknown_txid"
        client.close()
        await service.stop()
        await server.stop()

    run(scenario)


def test_rate_limited_submission_gets_429_with_retry_after_header():
    async def scenario():
        server, service, _pool = await _started_server(rate=10.0, burst=2.0)
        client = HTTPClient(server.host, server.port)
        headers = {"x-client-id": "burster"}
        for i in range(2):
            response = await client.request(
                "POST", "/v1/transactions", payload=_submission(i), headers=headers
            )
            assert response.status == 202
        rejected = await client.request(
            "POST", "/v1/transactions", payload=_submission(2), headers=headers
        )
        assert rejected.status == 429
        assert rejected.json()["error"]["code"] == "rate_limited"
        # Burst 2 spent instantly at rate 10/s: one token is 0.1 s out.
        assert float(rejected.headers["retry-after"]) == pytest.approx(0.1)
        # Another client is not collateral damage.
        other = await client.request(
            "POST", "/v1/transactions", payload=_submission(3), headers={"x-client-id": "b"}
        )
        assert other.status == 202
        client.close()
        await service.stop()
        await server.stop()

    run(scenario)


def test_structured_errors_for_duplicate_capacity_and_bad_json():
    async def scenario():
        server, service, _pool = await _started_server(
            rate=1000.0, burst=1000.0, max_clients=1
        )
        client = HTTPClient(server.host, server.port)
        headers = {"x-client-id": "only"}
        first = await client.request(
            "POST", "/v1/transactions", payload=_submission(0), headers=headers
        )
        assert first.status == 202
        duplicate = await client.request(
            "POST", "/v1/transactions", payload=_submission(0), headers=headers
        )
        assert duplicate.status == 409
        assert duplicate.json()["error"]["code"] == "duplicate_txid"
        # The gateway is at its 1-client capacity: a new identity is refused.
        denied = await client.request(
            "POST", "/v1/transactions", payload=_submission(1), headers={"x-client-id": "new"}
        )
        assert denied.status == 503
        assert denied.json()["error"]["code"] == "client_capacity"
        bad = await client.request(
            "POST", "/v1/transactions", payload=["not", "an", "object"], headers=headers
        )
        assert bad.status == 400
        assert bad.json()["error"]["code"] == "bad_request"
        client.close()
        await service.stop()
        await server.stop()

    run(scenario)


def test_a_malformed_request_gets_a_400_and_the_server_keeps_serving():
    async def scenario():
        errors = _watch_loop_errors()
        server, service, _pool = await _started_server()
        for length in (b"abc", b"-5"):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(
                b"POST /v1/transactions HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n"
            )
            status, body = await _read_response(reader)
            assert status == 400 and b"bad_request" in body
            assert await reader.read() == b""  # then the server hangs up
            writer.close()
        fresh = HTTPClient(server.host, server.port)
        assert (await fresh.request("GET", "/v1/health")).status == 200
        fresh.close()
        await service.stop()
        await server.stop()
        assert errors == []

    run(scenario)


def test_a_json_int_past_the_digit_limit_gets_a_400():
    """``json.loads`` refuses an int of more than 4,300 digits with a
    plain ValueError, not a JSONDecodeError: the client still gets its
    400, and the loop logs nothing."""

    async def scenario():
        errors = _watch_loop_errors()
        server, service, _pool = await _started_server()
        reader, writer = await asyncio.open_connection(server.host, server.port)
        body = b'{"txid":"t","op":["set","k",' + b"9" * 5000 + b"]}"
        writer.write(
            b"POST /v1/transactions HTTP/1.1\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
        )
        status, reply = await _read_response(reader)
        assert status == 400 and b"bad_request" in reply
        writer.close()
        await service.stop()
        await server.stop()
        assert errors == []

    run(scenario)


def test_an_unencodable_submission_does_not_drop_its_tick():
    """One tick's submissions leave the pool as one frame.  A body the
    codec cannot encode used to be accepted and then raise inside that
    frame's flush, after the queue was emptied, so every submission of
    the tick, from any client, was lost.  Now it gets a 400 and the
    others go out and commit."""

    async def scenario():
        errors = _watch_loop_errors()
        server, service, pool = await _started_server(rate=1000.0, burst=1000.0)
        reader, writer = await asyncio.open_connection(server.host, server.port)
        bodies = [
            b'{"txid":"good","op":["set","k",1]}',
            b'{"txid":"nested","op":["set","k",[1,2]]}',
            b'{"txid":"surrogate","op":["set","\\ud800",1]}',
        ]
        requests = []
        for k, body in enumerate(bodies):
            head = f"POST /v1/transactions HTTP/1.1\r\nx-client-id: c{k}\r\n"
            requests.append(head.encode() + f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        writer.write(b"".join(requests))
        statuses = [(await _read_response(reader))[0] for _ in bodies]
        assert statuses == [202, 400, 400]
        await asyncio.sleep(0)
        assert pool.sent == [ClientSubmit(Transaction("good", ("set", "k", 1)))]
        WIRE_CODEC.encode_frame(pool.sent[0])
        _commit(service, "good")
        client = HTTPClient(server.host, server.port)
        committed = await client.request("GET", "/v1/transactions/good")
        assert committed.json()["status"] == "committed"
        client.close()
        writer.close()
        await service.stop()
        await server.stop()
        assert errors == []

    run(scenario)


def test_pipelined_posts_in_one_write_reach_the_pool_as_one_frame():
    async def scenario():
        server, service, pool = await _started_server(rate=1000.0, burst=1000.0)
        reader, writer = await asyncio.open_connection(server.host, server.port)
        requests = []
        for i in range(5):
            body = f'{{"txid":"t{i}","op":["set","k",{i}]}}'.encode()
            requests.append(
                b"POST /v1/transactions HTTP/1.1\r\nx-client-id: a\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
        writer.write(b"".join(requests))
        for _ in requests:
            status, _body = await _read_response(reader)
            assert status == 202
        await asyncio.sleep(0)
        assert pool.sent == [
            ClientSubmitBatch(tuple(Transaction(f"t{i}", ("set", "k", i)) for i in range(5)))
        ]
        writer.close()
        await service.stop()
        await server.stop()

    run(scenario)


def test_state_chain_health_and_metrics_routes():
    async def scenario():
        server, service, _pool = await _started_server()
        client = HTTPClient(server.host, server.port)
        # Before any block the read path serves the empty genesis state.
        unknown = await client.request("GET", "/v1/state/x")
        assert unknown.status == 404
        assert unknown.json()["error"]["code"] == "unknown_key"
        assert unknown.json()["error"]["chain_length"] == 0
        chain = _chain(("set", "x", 41), ("incr", "x", 1))
        service.ingest_snapshots({i: _reply(i, chain) for i in range(3)})
        found = await client.request("GET", "/v1/state/x")
        body = found.json()
        assert found.status == 200
        assert body["value"] == 42 and body["supported_by"] == 3
        missing = await client.request("GET", "/v1/state/ghost")
        assert missing.status == 404
        assert missing.json()["error"]["code"] == "unknown_key"
        history = await client.request("GET", "/v1/chain")
        assert history.status == 200 and history.json()["height"] == 2
        health = await client.request("GET", "/v1/health")
        assert health.status == 200 and health.json()["status"] == "ok"
        metrics = await client.request("GET", "/v1/metrics")
        assert metrics.status == 200 and "submitted" in metrics.json()
        nothing = await client.request("GET", "/v1/nowhere")
        assert nothing.status == 404
        wrong_verb = await client.request("GET", "/v1/transactions")
        assert wrong_verb.status == 405
        client.close()
        await service.stop()
        await server.stop()

    run(scenario)


def test_cluster_metrics_route_serves_the_scrape():
    async def scenario():
        server, service, pool = await _started_server()
        pool.canned_scrapes = {
            node_id: MetricsReply(
                node_id=node_id,
                items=(("consensus.commits", 5.0), ("storage.fsyncs", 2.0)),
                events=1,
            )
            for node_id in range(4)
        }
        client = HTTPClient(server.host, server.port)
        view = await client.request("GET", "/v1/cluster/metrics")
        assert view.status == 200
        body = view.json()
        assert sorted(body["replicas"]) == ["0", "1", "2", "3"]
        assert body["replicas"]["0"]["metrics"]["consensus.commits"] == 5.0
        assert "gateway.submitted" in body["gateway"]
        wrong_verb = await client.request("POST", "/v1/cluster/metrics", payload={})
        assert wrong_verb.status == 405
        # A dead cluster is a 503 with a structured error, not a crash.
        pool.scrape_error = OSError("no replicas")
        down = await client.request("GET", "/v1/cluster/metrics")
        assert down.status == 503
        assert down.json()["error"]["code"] == "scrape_failed"
        client.close()
        await service.stop()
        await server.stop()

    run(scenario)


# -- WebSocket subscription ---------------------------------------------------


def test_ws_subscriber_streams_commit_events():
    async def scenario():
        server, service, _pool = await _started_server(rate=1000.0, burst=1000.0)
        http = HTTPClient(server.host, server.port)
        ws = WSClient(server.host, server.port)
        await ws.connect()
        await http.request(
            "POST", "/v1/transactions", payload=_submission(0), headers={"x-client-id": "a"}
        )
        _commit(service, "t0", slot=6)
        event = await asyncio.wait_for(ws.next_json(), timeout=5.0)
        assert event["type"] == "commit"
        assert event["txid"] == "t0" and event["slot"] == 6
        ws.close()
        http.close()
        await asyncio.sleep(0.05)  # let the handler observe the close
        await service.stop()
        await server.stop()

    run(scenario)


def test_a_read_after_the_commit_event_sees_the_write():
    """Read-your-commits over HTTP: the replicas stream the block, the
    WebSocket announces the commit, and the very next state read shows
    the write."""

    async def scenario():
        server, service, pool = await _started_server(rate=1000.0, burst=1000.0)
        http = HTTPClient(server.host, server.port)
        ws = WSClient(server.host, server.port)
        await ws.connect()
        await asyncio.sleep(0.05)  # subscription registered
        accepted = await http.request(
            "POST",
            "/v1/transactions",
            payload={"txid": "w1", "op": ["set", "x", 7]},
            headers={"x-client-id": "a"},
        )
        assert accepted.status == 202
        block = Block.create(1, GENESIS_DIGEST, (Transaction("w1", ("set", "x", 7)),))
        for node_id in range(4):
            pool.stream(node_id, block)
        event = await asyncio.wait_for(ws.next_json(), timeout=5.0)
        assert event["type"] == "commit" and event["txid"] == "w1"
        read = await http.request("GET", "/v1/state/x")
        assert read.status == 200
        assert read.json()["value"] == 7 and read.json()["chain_length"] == 1
        ws.close()
        http.close()
        await asyncio.sleep(0.05)
        await service.stop()
        await server.stop()

    run(scenario)


def test_ws_slow_consumer_is_closed_with_1013():
    async def scenario():
        server, service, _pool = await _started_server(
            rate=1000.0, burst=1000.0, subscriber_queue=2
        )
        http = HTTPClient(server.host, server.port)
        ws = WSClient(server.host, server.port)
        await ws.connect()
        await asyncio.sleep(0.05)  # subscription registered
        for i in range(8):
            await http.request(
                "POST",
                "/v1/transactions",
                payload=_submission(i),
                headers={"x-client-id": "a"},
            )
        # Commit all 8 without yielding: the server's event-writer task
        # never gets a turn, so the burst floods the subscription queue
        # (depth 2) in one scheduling slice — deterministic overflow.
        for i in range(8):
            _commit(service, f"t{i}")
        assert service.counters["subscribers_evicted"] == 1
        # Drain what was delivered; the stream must end in a 1013 close.
        while await asyncio.wait_for(ws.next_json(), timeout=5.0) is not None:
            pass
        assert ws.close_code == 1013
        assert ws.close_reason == "slow consumer"
        assert service.subscriptions == []
        ws.close()
        http.close()
        await service.stop()
        await server.stop()

    run(scenario)


def test_an_oversize_ws_frame_is_closed_with_1009():
    async def scenario():
        errors = _watch_loop_errors()
        server, service, _pool = await _started_server()
        ws = WSClient(server.host, server.port)
        await ws.connect()
        await asyncio.sleep(0.05)  # subscription registered
        # A masked TEXT frame header announcing one byte over the cap.
        ws.writer.write(bytes([0x81, 0x80 | 127]) + struct.pack(">Q", MAX_BODY_BYTES + 1))
        assert await asyncio.wait_for(ws.next_json(), timeout=5.0) is None
        assert ws.close_code == 1009
        assert service.subscriptions == []
        ws.close()
        await service.stop()
        await server.stop()
        assert errors == []

    run(scenario)
