"""Client-side replica connection pool — the repository layer.

Everything that talks to a replica's *client* TCP port lives here:
connect-with-retry, frame encode/decode, commit-ack correlation, and
the CollectReply request/response dance.  Two very different consumers
share it —

* the A7 bench driver (:mod:`repro.net.cluster`), which submits a
  pre-timestamped schedule and collects end-of-run evidence; and
* the client gateway (:mod:`repro.gateway`), which serves live HTTP/
  WebSocket traffic and *follows* every replica: each one streams its
  executed blocks (:class:`~repro.net.codec.BlockExecuted`) instead of
  txid-only acks, and the gateway serves reads from the blocks f+1 of
  them agree on.

Each connection is a :class:`~repro.net.transport.FrameProtocol`:
replies are decoded and dispatched in ``data_received``, with no
reader task per replica.

Timeouts derive from the cluster's ``time_scale`` (seconds of wall
clock per protocol Δ) via :func:`scaled_timeout`: the historical
15-second constants are exactly reproduced at the reference smoke
``time_scale`` of 0.05 s/Δ and grow linearly above it, so a slow cell
(big ``time_scale``) can no longer outlive a hard-coded wall-clock
wait and flake.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field

from repro.config import repro_config
from repro.errors import SimulationError
from repro.multishot.block import Block
from repro.net.codec import (
    WIRE_CODEC,
    BlockExecuted,
    ClientSubmit,
    ClientSubmitBatch,
    CollectReply,
    CollectRequest,
    CommitAck,
    CommitAckBatch,
    Follow,
    MetricsReply,
    MetricsRequest,
    SnapshotRequest,
    StartRun,
    WireCodec,
)
from repro.net.transport import FrameProtocol
from repro.smr.mempool import Transaction

#: The seconds-per-Δ the A7 smoke cells run at; the base timeouts below
#: are calibrated for it and scale linearly above it.
REFERENCE_TIME_SCALE = 0.05

#: Wall-clock seconds to wait for a replica's client port to accept, at
#: (or below) the reference time scale.
CONNECT_TIMEOUT_BASE = 15.0

#: Wall-clock seconds to wait for a CollectReply, at (or below) the
#: reference time scale.
COLLECT_TIMEOUT_BASE = 15.0


def scaled_timeout(base: float, time_scale: float) -> float:
    """``base`` seconds at the reference ``time_scale``, linear above.

    A cluster running at 4x the reference seconds-per-Δ needs 4x the
    wall-clock patience for the same protocol progress; a faster-than-
    reference cluster keeps the full base as a floor (process spawn and
    socket accept do not speed up with the protocol clock).
    """
    return base * max(1.0, time_scale / REFERENCE_TIME_SCALE)


@dataclass
class AckCorrelator:
    """Correlates CommitAcks from many replicas back to submissions.

    The single source of truth for ack bookkeeping: which txids were
    submitted (and when), which replica acked which txid, the submit →
    ack wall-clock latency samples, and the slot each transaction
    finalized in.  Duplicate acks and acks for transactions never
    submitted are ignored.
    """

    expected: set[str] = field(default_factory=set)
    submit_times: dict[str, float] = field(default_factory=dict)
    #: txids acked, per replica id.
    acked: dict[int, set[str]] = field(default_factory=dict)
    #: Finalization slot per txid (first ack wins).
    slots: dict[str, int] = field(default_factory=dict)
    latency_samples: list[float] = field(default_factory=list)
    last_ack_time: float = 0.0

    def track_nodes(self, node_ids: Iterable[int]) -> None:
        """Pre-register replicas so one that never acks anything drags
        quorum/minimum computations to zero instead of dropping out."""
        for node_id in node_ids:
            self.acked.setdefault(node_id, set())

    def record_submit(self, txid: str, now: float) -> None:
        self.expected.add(txid)
        self.submit_times.setdefault(txid, now)

    def record_ack(self, node_id: int, ack: CommitAck, now: float) -> float | None:
        """Correlate one ack; returns the latency sample if it was new."""
        submitted = self.submit_times.get(ack.txid)
        if submitted is None:
            return None  # an ack for a transaction we never sent
        acked = self.acked.setdefault(node_id, set())
        if ack.txid in acked:
            return None
        acked.add(ack.txid)
        self.slots.setdefault(ack.txid, ack.slot)
        latency = now - submitted
        self.latency_samples.append(latency)
        self.last_ack_time = now
        return latency

    def ack_count(self, txid: str) -> int:
        """How many distinct replicas acked ``txid``."""
        return sum(1 for acked in self.acked.values() if txid in acked)

    def all_acked(self, live: set[int]) -> bool:
        """Every live replica acked every expected transaction."""
        if not live:
            return False
        return all(self.expected <= self.acked.get(node_id, set()) for node_id in live)


class ReplicaConnection(FrameProtocol):
    """One connection to one replica's client port, and its protocol.

    Bytes that do not decode end the connection exactly as a replica
    that hung up would: the pool marks it dead.
    """

    def __init__(self, node_id: int, host: str, port: int, pool: "ReplicaPool") -> None:
        super().__init__(pool.codec)
        self.node_id = node_id
        self.host = host
        self.port = port
        self._pool = pool
        self.dead = False

    async def connect(self, timeout: float) -> None:
        loop = asyncio.get_running_loop()
        deadline = time.monotonic() + timeout
        while True:
            try:
                await loop.create_connection(lambda: self, self.host, self.port)
                return
            except OSError:
                if time.monotonic() >= deadline:
                    raise SimulationError(
                        f"replica {self.node_id} never opened its client port "
                        f"{self.host}:{self.port} within {timeout}s"
                    ) from None
                await asyncio.sleep(0.05)

    def send_frame(self, frame: bytes) -> None:
        if self.sock is not None and not self.sock.is_closing():
            self.sock.write(frame)

    def on_messages(self, messages: list) -> None:
        for message in messages:
            self._pool._on_message(self.node_id, message)

    def connection_lost(self, exc: Exception | None) -> None:
        self.dead = True
        self._pool._on_conn_death(self)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()


class ReplicaPool:
    """A pool of client connections, one per replica.

    ``addrs`` maps replica id → (host, client port).  Commit acks are
    dispatched to the ``on_ack(node_id, CommitAck)`` callback, one call
    per txid (a replica acks a whole block in one
    :class:`~repro.net.codec.CommitAckBatch`; the pool fans it out);
    replica deaths to ``on_death(node_id)``.  CollectReplies are
    correlated to the :meth:`collect` / :meth:`snapshot` call that
    requested them.

    After :meth:`follow`, every replica sends each executed block
    whole: the pool hands it to ``on_block(node_id, block)`` first,
    then fans its transactions out to ``on_ack`` exactly as it does an
    ack batch, so ack consumers see no difference.  A pool that never
    follows gets the acks alone.

    Submissions are batched the same way: :meth:`submit` queues, and
    everything queued in one event-loop tick leaves as one frame per
    replica.  Every frame the pool writes goes through :meth:`_write`,
    which sends the queue first, so each connection sees frames in call
    order.  A replica whose connection closes, or sends bytes that do
    not decode, leaves :attr:`live` and is reported to ``on_death``.
    """

    def __init__(
        self,
        addrs: Mapping[int, tuple[str, int]],
        *,
        time_scale: float = REFERENCE_TIME_SCALE,
        codec: WireCodec = WIRE_CODEC,
        on_ack=None,
        on_death=None,
    ) -> None:
        self.codec = codec
        self.connect_timeout = scaled_timeout(CONNECT_TIMEOUT_BASE, time_scale)
        self.collect_timeout = scaled_timeout(COLLECT_TIMEOUT_BASE, time_scale)
        self.on_ack = on_ack
        self.on_death = on_death
        self.on_block = None
        #: Set by :meth:`follow`: the height to (re)follow a replica from.
        self._follow_from: Callable[[], int] | None = None
        self._conns = {
            node_id: ReplicaConnection(node_id, host, port, self)
            for node_id, (host, port) in sorted(addrs.items())
        }
        self.live: set[int] = set(self._conns)
        self._reply_waiters: dict[int, asyncio.Future] = {}
        self._reply_lock = asyncio.Lock()
        #: Submits queued since the last flush, in call order.
        self._pending: list[Transaction] = []
        #: REPRO_NO_BATCH=1 makes every submit its own immediate flush.
        self._coalesce = not repro_config().no_batch

    @classmethod
    def from_specs(cls, specs, **kwargs) -> "ReplicaPool":
        """Build from the launcher's ReplicaSpec list (client ports)."""
        return cls({spec.node_id: (spec.host, spec.client_port) for spec in specs}, **kwargs)

    # -- lifecycle ------------------------------------------------------------

    async def connect(self) -> None:
        """Connect to every replica (waits out process start-up)."""
        await asyncio.gather(
            *(conn.connect(self.connect_timeout) for conn in self._conns.values())
        )

    def start_run(self) -> None:
        """Tell every replica the cluster is assembled: begin consensus."""
        self.broadcast(StartRun())

    def exclude(self, node_id: int) -> None:
        """Stop sending to (and expecting acks from) ``node_id`` — used
        when the orchestrator kills a replica on purpose."""
        self._flush()
        self.live.discard(node_id)

    async def readmit(self, node_id: int) -> None:
        """Reconnect to a restarted replica and mark it live again.

        The old connection (dead since the kill) is replaced by a fresh
        one to the same address; the connect retries until the
        restarted process opens its client port.  The stale read-loop's
        death notification is ignored (it no longer owns the slot).
        """
        old = self._conns.get(node_id)
        if old is None:
            raise SimulationError(f"no replica {node_id} in this pool")
        old.close()
        conn = ReplicaConnection(node_id, old.host, old.port, self)
        self._conns[node_id] = conn
        await conn.connect(self.connect_timeout)
        self.live.add(node_id)
        if self._follow_from is not None:
            self.refollow(node_id)

    def follow(self, since_height: Callable[[], int]) -> None:
        """Ask every live replica for its executed-block stream.

        ``since_height()`` is the height the caller already holds; it is
        asked again whenever one replica is followed anew (:meth:`readmit`,
        :meth:`refollow`), so a restarted replica resumes from what the
        caller holds then.
        """
        self._follow_from = since_height
        self.broadcast(Follow(since_height()))

    def refollow(self, node_id: int) -> None:
        """Restart ``node_id``'s block stream from ``since_height()``."""
        self.send_to(node_id, Follow(self._follow_from()))

    def send_to(self, node_id: int, message: object) -> None:
        """Send one frame to one specific replica (e.g. a targeted
        StartRun at a readmitted process)."""
        conn = self._conns.get(node_id)
        if conn is not None and not conn.dead:
            self._write([conn], self.codec.encode_frame(message))

    def close(self) -> None:
        self._flush()
        for conn in self._conns.values():
            conn.close()

    # -- submission -----------------------------------------------------------

    def _write(self, conns: Iterable[ReplicaConnection], frame: bytes) -> None:
        """The one way a frame leaves the pool: queued submits go first."""
        self._flush()
        for conn in conns:
            conn.send_frame(frame)

    def _live_conns(self) -> list[ReplicaConnection]:
        return [
            conn for conn in self._conns.values() if not conn.dead and conn.node_id in self.live
        ]

    def broadcast(self, message: object) -> None:
        """Encode once, send to every live replica."""
        self.broadcast_frame(self.codec.encode_frame(message))

    def broadcast_frame(self, frame: bytes) -> None:
        self._write(self._live_conns(), frame)

    def submit(self, txn: Transaction) -> None:
        """Queue one transaction for every live replica.

        The queue is flushed once per event-loop tick (``call_soon``,
        never a timer), so N submits in one tick cost one encode and one
        frame per replica.  Under ``REPRO_NO_BATCH=1`` each submit
        flushes at once: one bare ``ClientSubmit`` apiece.
        """
        self._pending.append(txn)
        if not self._coalesce:
            self._flush()
        elif len(self._pending) == 1:
            asyncio.get_running_loop().call_soon(self._flush)

    def _flush(self) -> None:
        if self._pending:
            txns, self._pending = self._pending, []
            self.submit_many(txns)

    def submit_many(self, txns: list[Transaction]) -> None:
        """Submit a batch as one frame per replica, after anything queued.

        A singleton batch degenerates to the bare ``ClientSubmit`` —
        the same discipline the message plane's VoteBatch envelope
        follows (no envelope overhead for unbatchable traffic).
        """
        if len(txns) == 1:
            self.broadcast(ClientSubmit(txns[0]))
        elif txns:
            self.broadcast(ClientSubmitBatch(tuple(txns)))

    # -- reply correlation ----------------------------------------------------

    def _on_message(self, node_id: int, message: object) -> None:
        if isinstance(message, CommitAckBatch):
            if self.on_ack is not None:
                for txid in message.txids:
                    self.on_ack(node_id, CommitAck(message.node_id, txid, message.slot))
        elif isinstance(message, CommitAck):
            if self.on_ack is not None:
                self.on_ack(node_id, message)
        elif isinstance(message, BlockExecuted):
            block = message.block
            if not isinstance(block, Block):
                return
            if self.on_block is not None:
                self.on_block(node_id, block)
            if self.on_ack is not None and isinstance(block.payload, tuple):
                for txn in block.payload:
                    if isinstance(txn, Transaction):
                        self.on_ack(node_id, CommitAck(message.node_id, txn.txid, block.slot))
        elif isinstance(message, (CollectReply, MetricsReply)):
            waiter = self._reply_waiters.get(node_id)
            if waiter is not None and not waiter.done():
                waiter.set_result(message)

    def _on_conn_death(self, conn: "ReplicaConnection") -> None:
        if self._conns.get(conn.node_id) is not conn:
            return  # a replaced (readmitted-over) connection dying late
        node_id = conn.node_id
        self.live.discard(node_id)
        waiter = self._reply_waiters.get(node_id)
        if waiter is not None and not waiter.done():
            waiter.cancel()
        if self.on_death is not None:
            self.on_death(node_id)

    async def _request_replies(
        self, request: object, timeout: float | None
    ) -> dict[int, CollectReply]:
        """Send ``request`` to every live replica; gather their replies.

        Replicas that die or stay silent are simply absent from the
        result — the caller decides whether that is fatal.
        """
        if timeout is None:
            timeout = self.collect_timeout
        async with self._reply_lock:
            targets = self._live_conns()
            loop = asyncio.get_running_loop()
            self._reply_waiters = {conn.node_id: loop.create_future() for conn in targets}
            self._write(targets, self.codec.encode_frame(request))
            replies: dict[int, CollectReply] = {}
            deadline = time.monotonic() + timeout
            try:
                for node_id, waiter in self._reply_waiters.items():
                    remaining = deadline - time.monotonic()
                    try:
                        replies[node_id] = await asyncio.wait_for(waiter, max(remaining, 0.001))
                    except asyncio.TimeoutError:
                        pass
                    except asyncio.CancelledError:
                        # The waiter (not this task) was cancelled: the
                        # connection died mid-request.  Skip the node.
                        if not waiter.cancelled():
                            raise
            finally:
                self._reply_waiters = {}
            return replies

    async def snapshot(self, timeout: float | None = None) -> dict[int, CollectReply]:
        """Mid-run evidence: current chain/state from every live
        replica, *without* shutting anything down."""
        return await self._request_replies(SnapshotRequest(), timeout)

    async def scrape(self, timeout: float | None = None) -> dict[int, MetricsReply]:
        """In-band metrics scrape: every live replica's obs-registry
        snapshot, without perturbing consensus.  Cheap enough to poll
        mid-run (no chain copy travels)."""
        return await self._request_replies(MetricsRequest(), timeout)

    async def collect(self, timeout: float | None = None) -> dict[int, CollectReply]:
        """End-of-run evidence collection; replicas shut down after
        replying (the A7 teardown contract)."""
        return await self._request_replies(CollectRequest(), timeout)
