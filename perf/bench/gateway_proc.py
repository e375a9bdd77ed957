"""The gateway as a process of its own: the deployment the A8 bench
folds into the load generator's loop.

Assembles the public pieces exactly as ``examples/gateway_client.py``
does — ``ReplicaPool`` → ``GatewayService`` with the **default**
``GatewayConfig`` (0.5 s snapshot refresh, 5 ms batch window) →
``GatewayServer`` — sends the bound port back over the pipe, and serves
until it is terminated.
"""

from __future__ import annotations

import asyncio
import logging

from repro.gateway.app import GatewayServer
from repro.gateway.service import GatewayConfig, GatewayService
from repro.net.client import ReplicaPool


def run_gateway(addrs: dict[int, tuple[str, int]], time_scale: float, conn) -> None:
    """Process target: serve ``addrs``' cluster over HTTP/WS forever."""
    logging.getLogger("asyncio").setLevel(logging.ERROR)

    async def main() -> None:
        pool = ReplicaPool(addrs, time_scale=time_scale)
        await pool.connect()
        service = GatewayService(pool, GatewayConfig(n=len(addrs)))
        await service.start()
        server = GatewayServer(service)
        await server.start()
        conn.send(server.port)
        await asyncio.Event().wait()

    asyncio.run(main())
