"""Gateway session service — the layer between API handlers and replicas.

The service owns everything stateful about serving clients:

* **submission** — admission control and per-client token buckets
  (:mod:`repro.gateway.ratelimit`), then server-side batching: client
  submissions accumulate for a short window (or until ``max_batch``)
  and travel to every replica as one ``ClientSubmitBatch`` frame —
  the client-plane sibling of the message plane's VoteBatch discipline
  (a singleton flush degenerates to the bare ``ClientSubmit``);
* **commit tracking** — commit acks from all replicas are correlated
  through the shared :class:`~repro.net.client.AckCorrelator`; a
  transaction is *committed* once ``ack_quorum`` = f+1 distinct
  replicas acked it (at least one honest replica executed it), which
  stamps the gateway-level latency sample and fans a commit event out
  to every WebSocket subscriber;
* **subscriptions** — bounded per-subscriber queues with slow-consumer
  eviction: a subscriber that cannot drain its queue is cut loose
  (with a final eviction notice) rather than allowed to grow gateway
  memory without bound;
* **reads** — executed state and chain history served *without
  touching consensus*: the service follows every replica
  (:meth:`~repro.net.client.ReplicaPool.follow`), which streams each
  block it executes, and applies block h to its own
  :class:`~repro.smr.kvstore.KVStore` once f+1 replicas sent the same
  digest for h, a body hashing to that digest, and h's parent is the
  applied tip.  At least one of the f+1 is honest, so the read state is
  a prefix of every honest replica's, and a commit is published after
  its block is applied (a read right after a ``commit`` event sees
  the write).  What one replica can make the gateway hold is bounded:
  only its first block per height counts, and nothing more than
  :data:`FOLLOW_LEAD` heights above the applied one.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.config import repro_config
from repro.gateway.ratelimit import AdmissionController
from repro.metrics.smr_trackers import nearest_rank_percentiles
from repro.multishot.block import GENESIS_DIGEST, Block, _compute_digest
from repro.net.client import AckCorrelator, ReplicaPool
from repro.net.codec import CollectReply, CommitAck
from repro.obs import CommitPathTracer, MetricsRegistry, items_to_dict
from repro.smr.mempool import Transaction
from repro.verification.audit import BlockApplier

#: Queue sentinel delivered to a subscriber that fell too far behind.
EVICTED = object()

#: Heights above the applied one the gateway holds a followed replica's
#: blocks for.  A block further ahead is dropped along with the rest of
#: that replica's stream, and the replica is followed again from the
#: applied height once the gateway has caught up with what it held from
#: it — so no replica can grow the gateway's memory, and an honest one
#: that ran ahead (a long suffix on follow) still delivers every block.
FOLLOW_LEAD = 1024

#: Counter names the gateway maintains (``gateway.`` namespace on the
#: registry; bare names through the :class:`_RegistryCounters` facade).
GATEWAY_COUNTERS = (
    "submitted",
    "committed",
    "rejected_rate",
    "rejected_admission",
    "duplicates",
    "flushes",
    "flushed_txns",
    "events_delivered",
    "subscribers_evicted",
)


class _RegistryCounters:
    """Dict-shaped view over registry counters.

    The gateway's metrics used to live in a plain dict; the call sites
    (``self.counters["submitted"] += 1``) are kept intact while the
    values now live on the shared :class:`MetricsRegistry`, so one
    snapshot carries everything the service measures.
    """

    def __init__(self, registry: MetricsRegistry, names, prefix: str = "gateway.") -> None:
        self._registry = registry
        self._prefix = prefix
        self._names = tuple(names)
        for name in self._names:
            registry.counter(prefix + name)

    def __getitem__(self, name: str) -> int:
        return int(self._registry.counter(self._prefix + name).value)

    def __setitem__(self, name: str, value: float) -> None:
        self._registry.counter(self._prefix + name).set(float(value))

    def keys(self):
        return iter(self._names)

    def __iter__(self):
        return iter(self._names)


@dataclass(frozen=True)
class GatewayConfig:
    """Tunables of one gateway instance."""

    #: Replica count of the cluster behind the gateway (quorum math).
    n: int
    #: Distinct clients the gateway will hold state for.
    max_clients: int = 4096
    #: Submitted-but-uncommitted cap per client.
    max_inflight_per_client: int = 512
    #: Token-bucket refill rate per client, transactions/second.
    rate: float = 200.0
    #: Token-bucket burst capacity per client.
    burst: float = 50.0
    #: Cap on how long a submission waits for batch-mates: the buffer
    #: flushes this many seconds after its first submission arrived.
    batch_window: float = 0.005
    #: Cap on the buffer: the submission that fills it flushes at once.
    max_batch: int = 64
    #: Per-subscriber event queue depth before eviction.
    subscriber_queue: int = 256

    @property
    def ack_quorum(self) -> int:
        """f+1: at least one honest replica executed the transaction."""
        return (self.n - 1) // 3 + 1


@dataclass
class TxnStatus:
    """Gateway-side lifecycle of one submitted transaction."""

    txid: str
    client_id: str
    submitted_at: float
    acks: set[int] = field(default_factory=set)
    slot: int | None = None
    committed_at: float | None = None

    @property
    def committed(self) -> bool:
        return self.committed_at is not None

    @property
    def latency(self) -> float | None:
        if self.committed_at is None:
            return None
        return self.committed_at - self.submitted_at


class Subscription:
    """One commit-event subscriber with a bounded queue.

    ``deliver`` never blocks: a full queue marks the subscriber evicted
    and replaces its oldest undelivered event with the :data:`EVICTED`
    sentinel, so the consumer always learns *why* its stream ended.
    """

    def __init__(self, maxsize: int) -> None:
        self.queue: asyncio.Queue = asyncio.Queue(maxsize)
        self.evicted = False
        self.closed = False

    def deliver(self, event: object) -> bool:
        if self.evicted or self.closed:
            return False
        try:
            self.queue.put_nowait(event)
            return True
        except asyncio.QueueFull:
            self.evicted = True
            try:
                self.queue.get_nowait()
            except asyncio.QueueEmpty:  # pragma: no cover - maxsize > 0
                pass
            self.queue.put_nowait(EVICTED)
            return False

    async def next_event(self) -> object:
        """The next event, or :data:`EVICTED` once the queue overflowed."""
        return await self.queue.get()


@dataclass(frozen=True)
class StateView:
    """One answered read: where the value came from."""

    value: object
    found: bool
    tip_slot: int
    chain_length: int
    #: Followed replicas that sent the tip's digest.
    supported_by: int


class GatewayService:
    """Session service over a :class:`~repro.net.client.ReplicaPool`."""

    def __init__(self, pool: ReplicaPool, config: GatewayConfig, clock=time.monotonic) -> None:
        self.pool = pool
        self.config = config
        self._clock = clock
        self.admission = AdmissionController(
            max_clients=config.max_clients,
            max_inflight_per_client=config.max_inflight_per_client,
            rate=config.rate,
            burst=config.burst,
            clock=clock,
        )
        self.correlator = AckCorrelator()
        self.correlator.track_nodes(pool.live)
        self.txns: dict[str, TxnStatus] = {}
        self.subscriptions: list[Subscription] = []
        self._buffer: list[Transaction] = []
        #: REPRO_NO_BATCH=1 disables ClientSubmitBatch coalescing here
        #: exactly as it disables VoteBatch coalescing in the engines —
        #: the ablation knob means one thing repo-wide.
        self._batching = not repro_config().no_batch
        self._flush_handle: asyncio.TimerHandle | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        # The read path: the applied chain, its state, and what the
        # followed replicas sent above it.
        self._applier = BlockApplier()
        self._chain: list[Block] = []
        #: Replicas that sent the applied tip's digest.
        self._tip_support: set[int] = set()
        #: height → replica → the first block it sent for that height,
        #: for heights above the applied one.
        self._pending: dict[int, dict[int, Block]] = {}
        #: Replicas whose stream ran past FOLLOW_LEAD → the applied
        #: height at which they are followed again.
        self._lapsed: dict[int, int] = {}
        self.started_at: float | None = None
        # Monotonic counters the metrics endpoint reports, living on
        # the gateway's own registry (``/v1/metrics`` is a view of it).
        self.registry = MetricsRegistry(clock=clock)
        self.counters = _RegistryCounters(self.registry, GATEWAY_COUNTERS)
        cfg = repro_config()
        #: Gateway end of the commit-path trace: admission → quorum ack.
        #: Same deterministic txid sampling as the replica tracers, so
        #: a sampled transaction is sampled at every hop.
        self.tracer = CommitPathTracer(
            sample_every=0 if cfg.no_obs else 16, clock=clock, terminal="ack"
        )
        pool.on_ack = self._on_ack
        pool.on_block = self._on_block

    # -- lifecycle ------------------------------------------------------------

    async def start(self, *, start_consensus: bool = True) -> None:
        """Bind to the running loop, follow every replica from the
        applied height, and optionally start the cluster."""
        self._loop = asyncio.get_running_loop()
        self.started_at = self._clock()
        self.pool.follow(lambda: self.height)
        if start_consensus:
            self.pool.start_run()

    async def stop(self) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        self._flush()
        for sub in self.subscriptions:
            sub.closed = True

    # -- submission path ------------------------------------------------------

    def submit(self, client_id: str, txn: Transaction) -> TxnStatus:
        """Admit, rate-limit, dedup, and batch one client submission.

        Raises :class:`~repro.gateway.ratelimit.AdmissionDenied`,
        :class:`~repro.gateway.ratelimit.RateLimited`, or
        :class:`DuplicateTransaction`; on success the transaction is
        queued for the next batch flush and its status is tracked until
        quorum commit.
        """
        if txn.txid in self.txns:
            self.counters["duplicates"] += 1
            raise DuplicateTransaction(f"transaction {txn.txid!r} was already submitted")
        state = self.admission.check_submit(client_id)
        now = self._clock()
        status = TxnStatus(txid=txn.txid, client_id=client_id, submitted_at=now)
        self.txns[txn.txid] = status
        self.correlator.record_submit(txn.txid, now)
        state.inflight += 1
        state.submitted += 1
        state.txids.add(txn.txid)
        self.counters["submitted"] += 1
        self.tracer.record(txn.txid, "admit", at=now)
        if not self._batching:
            # Batching disabled: every submission travels alone, now.
            self.pool.submit(txn)
            self.tracer.record(txn.txid, "submit")
            self.counters["flushes"] += 1
            self.counters["flushed_txns"] += 1
            return status
        self._buffer.append(txn)
        if len(self._buffer) >= self.config.max_batch:
            self._flush()
        elif self._flush_handle is None and self._loop is not None:
            self._flush_handle = self._loop.call_later(self.config.batch_window, self._flush)
        return status

    def _flush(self) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        self.pool.submit_many(batch)
        for txn in batch:
            self.tracer.record(txn.txid, "submit")
        self.counters["flushes"] += 1
        self.counters["flushed_txns"] += len(batch)

    # -- commit path ----------------------------------------------------------

    def _on_ack(self, node_id: int, ack: CommitAck) -> None:
        now = self._clock()
        if self.correlator.record_ack(node_id, ack, now) is None:
            return
        status = self.txns.get(ack.txid)
        if status is None:  # pragma: no cover - correlator already filters
            return
        status.acks.add(node_id)
        if status.slot is None:
            status.slot = ack.slot
        if not status.committed and len(status.acks) >= self.config.ack_quorum:
            status.committed_at = now
            self.tracer.record(status.txid, "ack", at=now)
            self.counters["committed"] += 1
            client = self.admission.clients.get(status.client_id)
            if client is not None and client.inflight > 0:
                client.inflight -= 1
            self._publish(
                {
                    "type": "commit",
                    "txid": status.txid,
                    "slot": status.slot,
                    "acks": len(status.acks),
                    "latency_ms": (now - status.submitted_at) * 1000.0,
                }
            )

    # -- subscriptions --------------------------------------------------------

    def subscribe(self) -> Subscription:
        sub = Subscription(self.config.subscriber_queue)
        self.subscriptions.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        sub.closed = True
        if sub in self.subscriptions:
            self.subscriptions.remove(sub)

    def _publish(self, event: dict) -> None:
        evicted = [sub for sub in self.subscriptions if not sub.deliver(event)]
        for sub in evicted:
            if sub.evicted:
                self.counters["subscribers_evicted"] += 1
            self.subscriptions.remove(sub)
        self.counters["events_delivered"] += len(self.subscriptions)

    # -- read path ------------------------------------------------------------

    @property
    def height(self) -> int:
        """Height of the applied chain (0 before any block)."""
        return len(self._chain)

    def _on_block(self, node_id: int, block: Block) -> None:
        """One block from ``node_id``'s stream: hold the first per height,
        then apply whatever that lets through."""
        height = block.slot
        applied = len(self._chain)
        if not isinstance(height, int) or height <= applied:
            if height == applied > 0 and block.digest == self._chain[-1].digest:
                self._tip_support.add(node_id)
            return
        if node_id in self._lapsed:
            return
        if height > applied + FOLLOW_LEAD:
            self._lapsed[node_id] = applied + FOLLOW_LEAD
            return
        held = self._pending.setdefault(height, {})
        if node_id not in held:
            held[node_id] = block
            if height == applied + 1:
                self._advance()

    def _advance(self) -> None:
        """Apply the next block while f+1 replicas agree on it."""
        while True:
            held = self._pending.get(len(self._chain) + 1)
            block = None if held is None else self._agreed(held)
            if block is None:
                break
            del self._pending[block.slot]
            self._applier.apply(block)
            self._chain.append(block)
            self._tip_support = {node for node, b in held.items() if b.digest == block.digest}
        for node_id, at in list(self._lapsed.items()):
            if len(self._chain) >= at:
                del self._lapsed[node_id]
                self.pool.refollow(node_id)

    def _agreed(self, held: dict[int, Block]) -> Block | None:
        """The block at this height to apply: a digest f+1 replicas sent,
        with a body that hashes to it and extends the applied tip."""
        votes: dict[object, list[Block]] = {}
        for block in held.values():
            votes.setdefault(block.digest, []).append(block)
        tip = self._chain[-1].digest if self._chain else GENESIS_DIGEST
        for digest, bodies in votes.items():
            if len(bodies) < self.config.ack_quorum:
                continue
            for body in bodies:
                if body.parent == tip and _compute_digest(body.slot, tip, body.payload) == digest:
                    return body
        return None

    def ingest_snapshots(self, replies: dict[int, CollectReply]) -> int:
        """Feed collected chains through the follow path, height by
        height across the replies (tests, offline replay); returns how
        many replicas vouch for the applied tip."""
        chains = [(node_id, reply.chain) for node_id, reply in sorted(replies.items())]
        for index in range(max((len(chain) for _node, chain in chains), default=0)):
            for node_id, chain in chains:
                if index < len(chain):
                    self._on_block(node_id, chain[index])
        return len(self._tip_support)

    def read_state(self, key: str) -> StateView:
        """Point-read from the applied state."""
        missing = object()
        value = self._applier.store.get(key, missing)
        return StateView(
            value=None if value is missing else value,
            found=value is not missing,
            tip_slot=self._chain[-1].slot if self._chain else 0,
            chain_length=len(self._chain),
            supported_by=len(self._tip_support),
        )

    def chain_history(self, start: int = 0, limit: int = 50) -> dict:
        """Summary of the applied chain."""
        chain = self._chain
        blocks = []
        for block in chain:
            if block.slot < start:
                continue
            if len(blocks) >= limit:
                break
            payload = block.payload if isinstance(block.payload, tuple) else ()
            blocks.append(
                {
                    "slot": block.slot,
                    "digest": block.digest,
                    "parent": block.parent,
                    "txids": [txn.txid for txn in payload if isinstance(txn, Transaction)],
                }
            )
        return {
            "height": len(chain),
            "tip": chain[-1].digest if chain else None,
            "supported_by": len(self._tip_support),
            "blocks": blocks,
        }

    # -- introspection --------------------------------------------------------

    def txn_view(self, txid: str) -> dict | None:
        status = self.txns.get(txid)
        if status is None:
            return None
        latency = status.latency
        return {
            "txid": status.txid,
            "status": "committed" if status.committed else "pending",
            "acks": len(status.acks),
            "quorum": self.config.ack_quorum,
            "slot": status.slot,
            "latency_ms": None if latency is None else latency * 1000.0,
        }

    def latency_percentiles(self) -> dict[int, float]:
        """Gateway-level commit latency (submit → quorum ack), ms."""
        samples = [
            status.latency for status in self.txns.values() if status.latency is not None
        ]
        return {p: v * 1000.0 for p, v in nearest_rank_percentiles(samples).items()}

    def metrics(self) -> dict:
        pending = self.counters["submitted"] - self.counters["committed"]
        # Derived values live on the registry as gauges so a registry
        # snapshot is self-contained; the endpoint's flat keys are kept
        # as a stable view over it.
        self.registry.gauge("gateway.pending").set(pending)
        self.registry.gauge("gateway.clients").set(len(self.admission.clients))
        self.registry.gauge("gateway.subscribers").set(len(self.subscriptions))
        self.registry.gauge("gateway.replicas_live").set(len(self.pool.live))
        self.tracer.publish(self.registry, prefix="gateway.trace.")
        return {
            **{name: self.counters[name] for name in self.counters},
            "pending": pending,
            "clients": len(self.admission.clients),
            "subscribers": len(self.subscriptions),
            "replicas_live": len(self.pool.live),
            "latency_ms": {str(p): v for p, v in self.latency_percentiles().items()},
            "uptime_seconds": 0.0
            if self.started_at is None
            else self._clock() - self.started_at,
            "registry": self.registry.snapshot(),
        }

    async def cluster_metrics(self, timeout: float | None = None) -> dict:
        """Scrape every live replica in-band and aggregate per replica.

        The ``/v1/cluster/metrics`` payload: one MetricsRequest round
        over the client ports, each reply's sorted items decoded back
        into a flat name → value map, plus the gateway's own registry
        snapshot so one response covers the whole deployment.
        """
        replies = await self.pool.scrape(timeout)
        return {
            "replicas": {
                str(node_id): {
                    "events": reply.events,
                    "metrics": items_to_dict(reply.items),
                }
                for node_id, reply in sorted(replies.items())
            },
            "replicas_live": len(self.pool.live),
            "gateway": self.registry.snapshot(),
        }

    def health(self) -> dict:
        live = len(self.pool.live)
        quorum_alive = live >= self.config.ack_quorum
        return {
            "status": "ok" if quorum_alive else "degraded",
            "replicas_live": live,
            "replicas_total": self.config.n,
            "ack_quorum": self.config.ack_quorum,
            "height": self.height,
        }


class DuplicateTransaction(Exception):
    """A txid the gateway already tracks was submitted again."""
