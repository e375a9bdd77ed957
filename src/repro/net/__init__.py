"""Deployment subsystem: wire protocol, TCP transport, process clusters.

Everything below :mod:`repro.sim` runs the protocol nodes inside one
Python interpreter; this package takes the *identical* transport-
agnostic state machines to real networked processes — the "implement
Multi-shot TetraBFT and evaluate it" direction the paper's conclusion
points at:

* :mod:`repro.net.codec` — a deterministic, versioned, length-prefixed
  binary codec with an explicit message-type registry covering every
  wire-crossing dataclass (core single-shot, multi-shot, the chained
  baselines, and the net layer's own control frames);
* :mod:`repro.net.transport` — an asyncio TCP transport speaking that
  framing in protocol callbacks, with per-peer outbound lanes,
  reconnect-with-backoff and optional injected link latency so the geo
  scenarios carry over;
* :mod:`repro.net.client` — the client-side repository layer: a
  replica-connection pool with commit-ack correlation, the followed
  block stream, and ``time_scale``-derived timeouts, shared by the A7
  bench driver and the gateway service;
* :mod:`repro.net.cluster` — a multiprocess cluster launcher/driver:
  one OS process per replica (any registered engine), a TCP client
  port per replica for transaction submission, commit acknowledgements
  for wall-clock latency measurement, and graceful shutdown that
  collects each replica's finalized chain, state digest and metrics
  for the :class:`~repro.verification.audit.SafetyAuditor`;
* :mod:`repro.net.replica_main` — the replica process entry point.

``python -m repro net`` (:mod:`repro.eval.net_bench`) is the A7
experiment over this stack.
"""

from repro.net.codec import (
    WIRE_VERSION,
    CodecError,
    FrameBuffer,
    MetricsReply,
    MetricsRequest,
    WireCodec,
    wire_codec,
)
from repro.net.client import AckCorrelator, ReplicaPool, scaled_timeout
from repro.net.cluster import ClusterConfig, NetRunResult, run_cluster_workload
from repro.net.transport import NetContext, NetTransport

__all__ = [
    "WIRE_VERSION",
    "CodecError",
    "FrameBuffer",
    "WireCodec",
    "wire_codec",
    "MetricsReply",
    "MetricsRequest",
    "AckCorrelator",
    "ReplicaPool",
    "scaled_timeout",
    "ClusterConfig",
    "NetRunResult",
    "run_cluster_workload",
    "NetContext",
    "NetTransport",
]
