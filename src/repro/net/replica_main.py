"""Entry point of one replica OS process.

Spawned by :mod:`repro.net.cluster` with a picklable
:class:`ReplicaSpec`, this module assembles the same stack the
simulator drives — a :class:`~repro.smr.replica.Replica` over any
registered :class:`~repro.smr.engine.ConsensusEngine` — on top of a
:class:`~repro.net.transport.NetTransport`, plus a client-facing TCP
server whose connections are protocol callbacks (a client whose bytes
do not decode is closed and leaves an ``anomaly`` event):

* peer frames are decoded and fed to ``replica.receive`` (buffered
  until the driver's ``StartRun`` arrives — over real sockets a fast
  peer's first proposal can beat the local start signal);
* ``ClientSubmit`` / ``ClientSubmitBatch`` frames go to
  ``replica.submit`` (the batch form is the client pool's per-tick
  submission coalescing — many submissions, one frame);
* ``SnapshotRequest`` answers with the same ``CollectReply`` evidence
  as a collect but keeps the replica in consensus (mid-run evidence for
  drivers such as a rejoiner's convergence check);
* every executed block is acknowledged to connected clients with one
  ``CommitAckBatch`` of the txids it applied (a bare ``CommitAck`` when
  it applied one), the acks of one loop tick as one write per
  connection, sent ahead of any reply that follows them (the client's
  wall-clock latency sample);
* a connection that sends ``Follow(since_height)`` is a *follower*: it
  gets one ``BlockExecuted`` per executed block above that height at
  once, then one per block as it executes, empty blocks included, in
  place of the acks and through the same per-tick write.  The
  gateway's read path applies this stream itself, so no replica ever
  ships its whole chain to serve a read;
* ``CollectRequest`` answers with a ``CollectReply`` carrying the
  finalized chain, live state digest and applied-transaction log — the
  exact :class:`~repro.verification.audit.ReplicaEvidence` fields the
  safety auditor replays — then shuts the process down gracefully;
* a peer lane that loses its connection leaves a ``peer_lost`` event
  and is handed to the engine (``on_peer_lost``), which times out at
  once the slots that peer leads (``consensus.leader_lost_timeouts``).
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass

from pathlib import Path

from repro.config import repro_config
from repro.core.config import ProtocolConfig
from repro.metrics.smr_trackers import SMRTrackers
from repro.multishot.block import GENESIS_DIGEST, Block, linked_run
from repro.net.codec import (
    MAX_TXN_DEPTH,
    WIRE_CODEC,
    BlockExecuted,
    ClientSubmit,
    ClientSubmitBatch,
    CodecError,
    CollectReply,
    CollectRequest,
    CommitAck,
    CommitAckBatch,
    Follow,
    MetricsReply,
    MetricsRequest,
    SnapshotRequest,
    StartRun,
    StateTransferReply,
    StateTransferRequest,
)
from repro.net.client import REFERENCE_TIME_SCALE
from repro.net.transport import FrameProtocol, LinkLatency, NetContext, NetTransport
from repro.obs import CommitPathTracer, EventLog, MetricsRegistry
from repro.sim.trace import TraceKind
from repro.smr.engine import engine_factory
from repro.smr.mempool import Transaction
from repro.smr.replica import Replica
from repro.storage.api import MemoryStorage

#: Events kept in a replica's in-memory forensics ring.
EVENT_RING_CAPACITY = 256

#: Sliding window of the live commit-rate meter, seconds.
COMMIT_RATE_WINDOW = 2.0


@dataclass(frozen=True)
class ReplicaSpec:
    """Everything one replica process needs, in picklable primitives."""

    node_id: int
    n: int
    engine: str
    host: str
    peer_port: int
    client_port: int
    #: (peer id, host, port) triples for every *other* replica.
    peer_addrs: tuple[tuple[int, str, int], ...]
    time_scale: float
    latency_default: float
    latency_pairs: tuple[tuple[int, int, float], ...]
    max_slots: int | None
    batch: int
    #: (peer id, host, *client* port) triples for every other replica —
    #: the ports state-transfer catch-up fetches finalized chains from.
    client_addrs: tuple[tuple[int, str, int], ...] = ()
    #: Durability root for this replica; ``None`` runs MemoryStorage
    #: (no persistence — the historical behavior).
    data_dir: str | None = None

    def build_latency(self) -> LinkLatency:
        return LinkLatency.from_pairs(self.latency_default, self.latency_pairs)

    def build_storage(self):
        """The spec's storage: DiskStorage under ``data_dir``, else memory."""
        if self.data_dir is None:
            return MemoryStorage()
        # Imported here, not at module top: repro.storage.disk pulls the
        # wire codec back in through repro.net, and this module sits on
        # that cycle (net.cluster -> replica_main -> storage -> net).
        from repro.storage.disk import DiskStorage

        return DiskStorage(self.data_dir)


class _AckingTrackers(SMRTrackers):
    """SMR trackers that ack commits and feed the obs plane.

    Every tracker callback is already on the consensus hot path, so
    this is where the registry instruments live: commit/block counters,
    the windowed commit-rate meter, the mempool-depth gauge, finalize
    events, and the sampled commit-path trace stages.  The inherited
    ``latency`` tracker is not fed: nothing in a replica process reads
    it, and it grows by an entry per txid and a sample per commit.
    """

    def __init__(self, executed, ack, registry: MetricsRegistry, events: EventLog, tracer) -> None:
        super().__init__()
        self._executed = executed
        self._ack = ack
        self._events = events
        self._tracer = tracer
        self._commits = registry.counter("consensus.commits")
        self._blocks = registry.counter("consensus.blocks")
        self._commit_meter = registry.histogram("consensus.commit", window=COMMIT_RATE_WINDOW)
        self._depth = registry.gauge("mempool.depth")

    def record_submit(self, txid: str, time: float) -> None:
        self._tracer.record(txid, "submit")

    def record_proposal(self, node: int, txids: tuple[str, ...], time: float) -> None:
        for txid in txids:
            self._tracer.record(txid, "propose")

    def record_commit(self, node: int, txid: str, time: float) -> None:
        self._commits.inc()
        self._commit_meter.record(1.0)
        self._tracer.record(txid, "finalize")
        self._ack(txid)

    def record_block(self, node: int, slot: int, txns: int, mempool_size: int, time: float) -> None:
        super().record_block(node, slot, txns, mempool_size, time)
        self._blocks.inc()
        self._events.emit("finalize", slot=slot, txns=txns, mempool=mempool_size)
        self._executed(txns)

    def record_mempool(self, node: int, size: int) -> None:
        super().record_mempool(node, size)
        self._depth.set(size)


class _ObsNetContext(NetContext):
    """NetContext that counts view changes and logs them as events.

    Engines announce a view entry either with ``report_view_entry`` or,
    per slot, with a bare ``trace(VIEW_ENTER, slot=, view=)``.  The
    first ends in ``trace`` as well, so that is the one place to look.
    View 0 is a slot starting, not a view change.  A view-change
    request made because the leader's connection was lost traces
    ``TIMER`` with ``leader_lost=True`` and counts as a leader-lost
    timeout; any other ``TIMER`` is a view timer that ran out, counted
    as a timeout and logged as a ``timeout`` event.
    """

    def __init__(self, node_id, transport, time_scale, registry, events) -> None:
        super().__init__(node_id, transport, time_scale)
        self._view_changes = registry.counter("consensus.view_changes")
        self._view = registry.gauge("consensus.view")
        self._leader_lost_timeouts = registry.counter("consensus.leader_lost_timeouts")
        self._timeouts = registry.counter("consensus.timeouts")
        self._events = events

    def trace(self, kind: TraceKind, **detail: object) -> None:
        if kind is TraceKind.VIEW_ENTER and detail["view"] > 0:
            view = detail["view"]
            if view > self._view.value:
                self._view.set(view)
            self._view_changes.inc()
            self._events.emit("view_enter", **detail)
        elif kind is TraceKind.TIMER:
            if detail.get("leader_lost"):
                self._leader_lost_timeouts.inc()
            else:
                self._timeouts.inc()
                self._events.emit("timeout", **detail)


class ReplicaProcess:
    """The asyncio program one replica process runs."""

    def __init__(self, spec: ReplicaSpec) -> None:
        self.spec = spec
        self.codec = WIRE_CODEC
        cfg = repro_config()
        factory = engine_factory(
            spec.engine, ProtocolConfig.create(spec.n), max_slots=spec.max_slots
        )
        # The obs plane: one registry + event log + tracer per replica
        # process.
        self.registry = MetricsRegistry()
        self._events_path = self._event_log_path(cfg)
        self.events = EventLog(
            replica=spec.node_id,
            capacity=EVENT_RING_CAPACITY,
            stream_path=self._events_path if cfg.event_log else None,
        )
        self.tracer = CommitPathTracer(terminal="finalize")
        self.trackers = _AckingTrackers(
            self._block_executed, self._ack_commit, self.registry, self.events, self.tracer
        )
        self.storage = spec.build_storage()
        self.replica = Replica(
            spec.node_id,
            max_batch=spec.batch,
            trackers=self.trackers,
            engine_factory=factory,
            storage=self.storage,
        )
        # Recovery happens before any socket opens: replay the intact,
        # hash-linking WAL prefix and bootstrap the engine with it.
        # The delta the crash window lost is fetched from peers by the
        # catch-up loop.
        self._recovered_blocks = 0
        recovered = self.storage.recover()
        if recovered is not None:
            self.replica.bootstrap(recovered.chain)
            self._recovered_blocks = len(recovered.chain)
            self.events.emit(
                "recover",
                slot=recovered.chain[-1].slot,
                blocks=self._recovered_blocks,
                wal_blocks=recovered.wal_blocks,
                torn_tail=recovered.torn_tail,
            )
        if getattr(self.storage, "cut_bytes", 0):  # a torn tail, or damaged records
            self.events.emit(
                "anomaly",
                wal_cut_offset=self.storage.cut_offset,
                wal_cut_bytes=self.storage.cut_bytes,
            )
        self.transport = NetTransport(
            spec.node_id,
            spec.host,
            spec.peer_port,
            {pid: (host, port) for pid, host, port in spec.peer_addrs},
            self._on_peer_message,
            latency=spec.build_latency(),
            on_peer_lost=self._on_peer_lost,
        )
        self.ctx = _ObsNetContext(
            spec.node_id, self.transport, spec.time_scale, self.registry, self.events
        )
        self._started = False
        self._run_t0: float | None = None
        self._cpu_t0 = 0.0
        self._pre_start: list[tuple[int, object]] = []
        self._frames_in = self.registry.counter("net.frames_in")
        self._messages_in = self.registry.counter("net.messages_in")
        self._client_frames_in = self.registry.counter("net.client_frames_in")
        self._client_frames_out = self.registry.counter("net.client_frames_out")
        #: Open client connections, in accept order.
        self._clients: list[asyncio.Transport] = []
        #: The client connections that sent ``Follow``.
        self._followers: set[asyncio.Transport] = set()
        #: Unsent client frames, one (block, applied txids) entry per
        #: executed block.
        self._acks: list[tuple[Block, list[str]]] = []
        self._done = asyncio.Event()
        self._catch_up_task: asyncio.Task | None = None

    def _event_log_path(self, cfg) -> Path | None:
        """Where this replica's NDJSON event log lives, if anywhere.

        A durable replica keeps it next to its WAL; a memory replica
        falls back to ``REPRO_DATA_DIR`` (an ``events/`` subdir, one
        file per node+port so concurrent cells do not collide); with
        neither configured there is nowhere to write and only the ring
        buffer exists.
        """
        if self.spec.data_dir is not None:
            return Path(self.spec.data_dir) / "events.ndjson"
        if cfg.data_dir:
            name = f"node{self.spec.node_id}-{self.spec.client_port}.ndjson"
            return Path(cfg.data_dir) / "events" / name
        return None

    # -- consensus plumbing ---------------------------------------------------

    def _on_peer_message(self, sender: int, message: object) -> None:
        """Peer traffic; buffered until the driver says StartRun."""
        self._frames_in.inc()
        count_fn = getattr(message, "logical_count", None)
        self._messages_in.inc(1 if count_fn is None else count_fn())
        if not self._started:
            self._pre_start.append((sender, message))
            return
        self.replica.receive(sender, message)

    def _on_peer_lost(self, peer: int) -> None:
        """A peer lane lost its connection: log it, and let a started
        engine time out the slots that peer leads."""
        self.events.emit("peer_lost", peer=peer)
        on_peer_lost = getattr(self.replica.consensus, "on_peer_lost", None)
        if self._started and on_peer_lost is not None:
            on_peer_lost(peer)

    def _start_consensus(self) -> None:
        if self._started:
            return
        self._started = True
        # Busy-duty evidence: CPU vs wall time from StartRun to collect.
        self._run_t0 = time.monotonic()
        self._cpu_t0 = time.process_time()
        self.ctx.start_clock()
        self.replica.start(self.ctx)
        backlog, self._pre_start = self._pre_start, []
        for sender, message in backlog:
            self.replica.receive(sender, message)
        if self.spec.data_dir is not None and self.spec.client_addrs:
            self._catch_up_task = asyncio.ensure_future(self._catch_up_loop())

    def _block_executed(self, txns: int) -> None:
        """Queue the block being executed (``txns`` applied): followers
        get every block, the other clients only the acks of a block that
        applied something.  The tick's queue leaves via ``call_soon``
        (never a timer)."""
        if txns or self._followers:
            if not self._acks:
                asyncio.get_running_loop().call_soon(self._flush_acks)
            self._acks.append((self.replica.executed_blocks[-1], []))

    def _ack_commit(self, txid: str) -> None:
        """Add ``txid`` to the ack of the block being executed."""
        self._acks[-1][1].append(txid)

    def _ack_clients(self) -> list[asyncio.Transport]:
        return [sock for sock in self._clients if sock not in self._followers]

    def _write_clients(self, socks, data: bytes, frames: int) -> None:
        for sock in socks:
            if not sock.is_closing():
                sock.write(data)
                self._client_frames_out.inc(frames)

    def _flush_acks(self) -> None:
        """One write per client connection, one frame per queued block:
        ``BlockExecuted`` to a follower, the block's ack to the rest."""
        if not self._acks:
            return
        acks, self._acks = self._acks, []
        node_id = self.spec.node_id
        encode_into = self.codec.encode_frame_into
        ack_clients = self._ack_clients()
        if ack_clients:
            buf = bytearray()
            frames = 0
            for block, txids in acks:
                if len(txids) == 1:
                    encode_into(CommitAck(node_id, txids[0], block.slot), buf)
                elif txids:
                    encode_into(CommitAckBatch(node_id, block.slot, tuple(txids)), buf)
                else:
                    continue
                frames += 1
            if frames:
                self._write_clients(ack_clients, bytes(buf), frames)
        if self._followers:
            buf = bytearray()
            for block, _txids in acks:
                encode_into(BlockExecuted(node_id, block), buf)
            self._write_clients(self._followers, bytes(buf), len(acks))

    def _follow(self, sock: asyncio.Transport, since_height: int) -> None:
        """Make ``sock`` a follower: every executed block above
        ``since_height`` now, each block executed later as it comes.
        Queued acks leave first, so the suffix and the stream that
        continues it have neither a gap nor an overlap."""
        self._flush_acks()
        self._followers.add(sock)
        buf = bytearray()
        blocks = [b for b in self.replica.executed_blocks if b.slot > since_height]
        for block in blocks:
            self.codec.encode_frame_into(BlockExecuted(self.spec.node_id, block), buf)
        self._write_clients((sock,), bytes(buf), len(blocks))

    def _reply(self, sock: asyncio.Transport, message: object) -> None:
        """Answer one client, behind every ack already queued for it."""
        self._flush_acks()
        sock.write(self.codec.encode_frame(message))
        self._client_frames_out.inc()

    def _metrics_items(self) -> tuple[tuple[str, float], ...]:
        """One obs-registry snapshot: the scrape/collect wire payload.

        Point-in-time sources — process CPU/wall seconds, transport
        lanes, durability counters, mempool occupancy, trace
        breakdowns — are published into the registry here, at
        scrape/collect time, so the hot path never pays for them.
        """
        registry = self.registry
        started = self._run_t0 is not None
        registry.counter("process.cpu_seconds").set(
            time.process_time() - self._cpu_t0 if started else 0.0
        )
        registry.counter("process.run_seconds").set(
            time.monotonic() - self._run_t0 if started else 0.0
        )
        registry.gauge("mempool.depth").set(self.replica.mempool.pending_count)
        registry.counter("storage.recovered_blocks").set(self._recovered_blocks)
        registry.gauge("events.buffered").set(len(self.events))
        self.transport.publish_metrics(registry)
        publish = getattr(self.storage, "publish_metrics", None)
        if publish is not None:
            publish(registry)
        self.tracer.publish(registry)
        return registry.snapshot_items()

    def _collect_reply(self) -> CollectReply:
        replica = self.replica
        return CollectReply(
            node_id=self.spec.node_id,
            chain=tuple(replica.finalized_chain),
            state_digest=replica.state_digest(),
            applied_txids=tuple(replica.store.applied_txids),
            blocks_applied=self.trackers.throughput.blocks_applied(self.spec.node_id),
            txns_applied=self.trackers.throughput.txns_applied(self.spec.node_id),
            metrics=self._metrics_items(),
        )

    # -- state-transfer catch-up ----------------------------------------------

    def _finalized_tip(self) -> tuple[int, str]:
        """(height, digest) of the local finalized tip; genesis at 0."""
        chain = self.replica.finalized_chain
        return (chain[-1].slot, chain[-1].digest) if chain else (0, GENESIS_DIGEST)

    async def _catch_up_loop(self) -> None:
        """Fetch the finalized gap from a peer whenever progress stalls.

        Armed only on durable replicas: after a restart the recovered
        chain ends where the last fsync did, and the live vote stream
        alone cannot finalize across the missing bodies — peer state
        transfer supplies exactly that delta.  While the tip advances
        (a healthy replica in a healthy cluster) the loop never fetches.
        """
        interval = 0.2 * max(1.0, self.spec.time_scale / REFERENCE_TIME_SCALE)
        last_height, _ = self._finalized_tip()
        peer_index = 0
        while not self._done.is_set():
            await asyncio.sleep(interval)
            tip = self._finalized_tip()
            if tip[0] > last_height:
                last_height = tip[0]
                continue
            addr = self.spec.client_addrs[peer_index % len(self.spec.client_addrs)]
            peer_index += 1
            try:
                await asyncio.wait_for(self._state_transfer(addr, tip), timeout=10 * interval)
            except (OSError, ConnectionError, asyncio.TimeoutError):
                continue  # that peer is down or slow; try the next one

    async def _state_transfer(self, addr: tuple[int, str, int], tip: tuple[int, str]) -> None:
        """One fetch: ask ``addr`` for finalized blocks above ``tip``."""
        peer_id, host, port = addr
        since_slot, tip_digest = tip
        loop = asyncio.get_running_loop()
        replied: asyncio.Future = loop.create_future()
        sock, _ = await loop.create_connection(
            lambda: _TransferFetch(self.codec, replied), host, port
        )
        try:
            sock.write(self.codec.encode_frame(StateTransferRequest(since_slot=since_slot)))
            reply = await replied
        finally:
            sock.close()
        if reply is None:
            return
        blocks = linked_run(reply.blocks, since_slot, tip_digest)
        if blocks:
            advanced = self.replica.offer_blocks(blocks)
            self.events.emit(
                "state_transfer",
                slot=blocks[-1].slot,
                applied=len(blocks),
                advanced=advanced,
                peer=peer_id,
            )

    # -- client server --------------------------------------------------------

    def _admit(self, txn: object) -> None:
        """Submit a client transaction, unless it is not a
        :class:`Transaction` or nests deeper than :data:`MAX_TXN_DEPTH`:
        such a one decodes here but not inside the batched proposal or
        the WAL record that would later carry it."""
        if isinstance(txn, Transaction) and self.codec.nesting_depth(txn) <= MAX_TXN_DEPTH:
            self.replica.submit(txn)

    def _on_client_messages(self, sock: asyncio.Transport, messages: list) -> None:
        """Serve the frames one client connection sent, in order."""
        for message in messages:
            self._client_frames_in.inc()
            if isinstance(message, ClientSubmit):
                self._admit(message.txn)
            elif isinstance(message, ClientSubmitBatch):
                for txn in message.txns:
                    self._admit(txn)
            elif isinstance(message, StartRun):
                self._start_consensus()
            elif isinstance(message, Follow) and type(message.since_height) is int:
                self._follow(sock, message.since_height)
            elif isinstance(message, StateTransferRequest):
                chain = self.replica.finalized_chain
                tip = chain[-1].slot if chain else 0
                blocks = tuple(b for b in chain if b.slot > message.since_slot)
                self.events.emit(
                    "state_transfer", slot=tip, served=len(blocks), since=message.since_slot
                )
                self._reply(sock, StateTransferReply(self.spec.node_id, tip, blocks))
            elif isinstance(message, MetricsRequest):
                # In-band scrape: the registry snapshot, no chain copy,
                # replica stays in consensus.
                items = self._metrics_items()
                self._reply(sock, MetricsReply(self.spec.node_id, items, len(self.events)))
            elif isinstance(message, SnapshotRequest):
                # Mid-run evidence: the same shape as a collect, but
                # stay in consensus.
                self._reply(sock, self._collect_reply())
            elif isinstance(message, CollectRequest):
                # Dump forensics and fsync the WAL tail BEFORE answering:
                # the driver reaps the process as soon as every reply is
                # in, and SIGTERM does not unwind the finally block — the
                # reply is the barrier for both.
                self._dump_events()
                self.storage.flush()
                self._reply(sock, self._collect_reply())
                self._done.set()
                sock.close()
                return
            else:
                # A frame a client port has no business seeing is a
                # protocol anomaly worth forensics.
                self.events.emit("anomaly", frame=type(message).__name__)

    # -- lifecycle ------------------------------------------------------------

    async def run(self) -> None:
        await self.transport.start()
        server = await asyncio.get_running_loop().create_server(
            lambda: _ClientPort(self), self.spec.host, self.spec.client_port
        )
        try:
            await self._done.wait()
        finally:
            if self._catch_up_task is not None:
                self._catch_up_task.cancel()
            self.ctx.cancel_timers()
            for sock in list(self._clients):
                sock.close()
            server.close()
            await server.wait_closed()
            await self.transport.stop()
            self.storage.close()
            self._dump_events()
            self.events.close()

    def _dump_events(self) -> None:
        """Forensics: leave the ring tail next to the WAL (or under
        ``REPRO_DATA_DIR``) so a post-mortem — a SafetyAuditor
        violation, a CI failure artifact — has the last N events per
        replica.  A streaming log already has everything on disk."""
        if self._events_path is not None and len(self.events) and not self.events.streaming:
            self.events.dump(self._events_path)


class _ClientPort(FrameProtocol):
    """One connection on a replica's client port.

    Bytes that do not decode close it and leave one ``anomaly`` event.
    While its send buffer is over the high-water mark the port stops
    reading it, so a client that never reads cannot grow our memory.
    """

    def __init__(self, process: ReplicaProcess) -> None:
        super().__init__(process.codec)
        self.process = process

    def connection_made(self, transport: asyncio.Transport) -> None:
        super().connection_made(transport)
        self.process._clients.append(transport)

    def on_messages(self, messages: list) -> None:
        self.process._on_client_messages(self.sock, messages)

    def on_decode_error(self, exc: CodecError) -> None:
        self.process.events.emit("anomaly", error=str(exc))

    def connection_lost(self, exc: Exception | None) -> None:
        self.process._clients.remove(self.sock)
        self.process._followers.discard(self.sock)

    def pause_writing(self) -> None:
        self.sock.pause_reading()

    def resume_writing(self) -> None:
        self.sock.resume_reading()


class _TransferFetch(FrameProtocol):
    """One state-transfer fetch: resolves ``replied`` with the peer's
    :class:`StateTransferReply`, or ``None`` if the connection ends
    first.  The peer also pushes commit acks; they are skipped."""

    def __init__(self, codec, replied: asyncio.Future) -> None:
        super().__init__(codec)
        self.replied = replied

    def on_messages(self, messages: list) -> None:
        for message in messages:
            if isinstance(message, StateTransferReply) and not self.replied.done():
                self.replied.set_result(message)

    def connection_lost(self, exc: Exception | None) -> None:
        if not self.replied.done():
            self.replied.set_result(None)


def run_replica(spec: ReplicaSpec) -> None:
    """Process target: run one replica until collected (or killed)."""
    # A dead peer's socket produces per-write "socket.send() raised
    # exception" warnings until the transport notices; the reconnect
    # machinery exists precisely to absorb those, so quiet them.
    logging.getLogger("asyncio").setLevel(logging.ERROR)
    asyncio.run(ReplicaProcess(spec).run())


if __name__ == "__main__":  # pragma: no cover - debugging aid
    import argparse
    import pickle
    from dataclasses import replace as _replace

    parser = argparse.ArgumentParser(description="run one replica process")
    parser.add_argument("spec_hex", help="hex-pickled ReplicaSpec")
    parser.add_argument(
        "--data-dir",
        default=None,
        help="override the spec's durability root (restart-from-disk runs)",
    )
    cli = parser.parse_args()
    spec = pickle.loads(bytes.fromhex(cli.spec_hex))
    if cli.data_dir is not None:
        spec = _replace(spec, data_dir=cli.data_dir)
    run_replica(spec)
