"""Client gateway: a layered service in front of the replica cluster.

Real deployments do not hand every client a TCP connection to every
replica — a *gateway* terminates untrusted client traffic, enforces
fairness, batches submissions, and serves reads, so the consensus
cluster only ever sees well-formed, rate-bounded frames from one peer.
This package is that plane, in three strict layers:

* **handler** (:mod:`repro.gateway.app`, :mod:`repro.gateway.http`) —
  a hand-rolled asyncio HTTP/1.1 + WebSocket API (the container has no
  third-party web stack): submit, status, state/chain reads, health,
  metrics, and a commit-event subscription stream;
* **service** (:mod:`repro.gateway.service`,
  :mod:`repro.gateway.ratelimit`) — per-client admission control and
  token buckets, server-side submission batching (the client-plane
  sibling of the message plane's vote aggregation), f+1 quorum commit
  tracking, subscription fan-out with slow-consumer eviction, and the
  read path, which follows every replica's executed-block stream;
* **repository** (:mod:`repro.net.client`) — the same replica
  connection pool the A7 bench driver uses; the gateway adds no second
  wire implementation.

``python -m repro gateway`` (:mod:`repro.eval.gateway_bench`) drives
this stack open-loop with thousands of concurrent clients — the A8
experiment.
"""

from repro.gateway.app import GatewayServer, parse_transaction
from repro.gateway.http import HTTPClient, WSClient
from repro.gateway.ratelimit import (
    AdmissionController,
    AdmissionDenied,
    GatewayError,
    RateLimited,
    TokenBucket,
)
from repro.gateway.service import (
    GatewayConfig,
    GatewayService,
    Subscription,
    TxnStatus,
)

__all__ = [
    "GatewayServer",
    "parse_transaction",
    "HTTPClient",
    "WSClient",
    "AdmissionController",
    "AdmissionDenied",
    "GatewayError",
    "RateLimited",
    "TokenBucket",
    "GatewayConfig",
    "GatewayService",
    "Subscription",
    "TxnStatus",
]
