#!/usr/bin/env python3
"""A client's-eye view of the cluster: through the gateway, end to end.

Everything the other examples do in one interpreter, this one does the
way a real client would — over HTTP.  A four-replica TetraBFT cluster
runs as separate OS processes; the layered gateway (HTTP/WebSocket
handlers → session service → replica connection pool) stands in front
of it; and this script plays three clients:

1. a *writer* submitting transactions through ``POST
   /v1/transactions`` and polling one to quorum commit,
2. a *subscriber* watching commits stream in over the WebSocket, and
3. a *flooder* who burns through its token bucket and collects a 429
   with a ``Retry-After`` hint — the gateway protects the cluster, per
   client, before a single frame reaches a replica mempool.

Finally the script reads executed state back through ``GET
/v1/state/…`` (served from the blocks the replicas stream to the
gateway, no consensus traffic) and checks the cluster's health summary.

Run:  python examples/gateway_client.py
"""

from __future__ import annotations

import asyncio

from repro.gateway import GatewayConfig, GatewayServer, GatewayService, HTTPClient, WSClient
from repro.net.client import ReplicaPool
from repro.net.cluster import ClusterConfig, cluster_processes


async def demo(specs) -> None:
    n = len(specs)
    pool = ReplicaPool.from_specs(specs, time_scale=0.05)
    await pool.connect()
    service = GatewayService(
        pool,
        GatewayConfig(n=n, rate=5.0, burst=3.0),
    )
    await service.start()
    server = GatewayServer(service)
    await server.start()
    print(f"gateway serving {n} replicas on http://{server.host}:{server.port}")

    # Client 2 first: subscribe before the writes so no commit is missed.
    subscriber = WSClient(server.host, server.port)
    await subscriber.connect()

    writer = HTTPClient(server.host, server.port)
    print("\n-- writer: submitting 3 transactions --")
    for i in range(3):
        response = await writer.request(
            "POST",
            "/v1/transactions",
            payload={"txid": f"demo-{i}", "op": ["incr", "counter", 1]},
            headers={"x-client-id": "writer"},
        )
        body = response.json()
        print(f"  {response.status} txid=demo-{i} status={body['status']}")

    print("\n-- subscriber: commit events over the WebSocket --")
    committed = set()
    while len(committed) < 3:
        event = await asyncio.wait_for(subscriber.next_json(), timeout=30.0)
        assert event is not None, "commit stream closed early"
        committed.add(event["txid"])
        print(
            f"  commit txid={event['txid']} slot={event['slot']} "
            f"acks={event['acks']} latency={event['latency_ms']:.1f}ms"
        )

    status = await writer.request("GET", "/v1/transactions/demo-0")
    body = status.json()
    print(f"\n-- poll: demo-0 is {body['status']} ({body['acks']}/{body['quorum']} acks) --")
    assert body["status"] == "committed"

    print("\n-- flooder: rate=5/s, burst=3 — the 4th rapid submit bounces --")
    flooder = HTTPClient(server.host, server.port)
    for i in range(4):
        response = await flooder.request(
            "POST",
            "/v1/transactions",
            payload={"txid": f"flood-{i}", "op": ["noop"]},
            headers={"x-client-id": "flooder"},
        )
        if response.status == 429:
            error = response.json()["error"]
            print(
                f"  submit {i}: 429 {error['code']}, "
                f"Retry-After {response.headers['retry-after']}s"
            )
        else:
            print(f"  submit {i}: {response.status} accepted")
    assert response.status == 429, "the burst should have been exhausted"

    # Wait until the flooder's accepted txns commit, then read state
    # back: a commit is published after its block is applied, so the
    # read sees every committed write — no consensus traffic involved.
    while service.metrics()["pending"] > 0:
        await asyncio.sleep(0.05)
    read = await writer.request("GET", "/v1/state/counter")
    body = read.json()
    print(
        f"\n-- read path: counter={body['value']} at height {body['chain_length']} "
        f"(tip vouched for by {body['supported_by']}/{n} replicas) --"
    )
    assert body["value"] == 3  # the writer's three incrs, flood was noops

    health = await writer.request("GET", "/v1/health")
    print(f"-- health: {health.json()} --")

    subscriber.close()
    writer.close()
    flooder.close()
    await asyncio.sleep(0.1)  # let handlers see the EOFs
    await service.stop()
    replies = await pool.collect()
    await server.stop()
    pool.close()
    digests = {reply.state_digest for reply in replies.values()}
    assert len(digests) == 1, "replicas disagree?!"
    print(f"\nall {len(replies)} replicas report state digest {digests.pop()[:16]}…")


def main() -> None:
    config = ClusterConfig(n=4, time_scale=0.05, max_slots=4096)
    with cluster_processes(config) as (specs, _processes):
        asyncio.run(demo(specs))
    print("gateway demo complete: submit, subscribe, rate-limit, read — all over HTTP")


if __name__ == "__main__":
    main()
