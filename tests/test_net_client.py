"""The shared client repository layer: timeouts, correlation, the pool.

In-process tests (fake replica servers on localhost sockets, no
subprocesses): the :mod:`repro.net.client` layer is what both the A7
bench driver and the gateway stand on, so its contracts are pinned
here — the ``time_scale`` → wall-clock timeout derivation, the
ack-correlation bookkeeping, and the pool's broadcast / batch /
snapshot / collect / follow behaviour against scripted replicas.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.net.client import (
    COLLECT_TIMEOUT_BASE,
    CONNECT_TIMEOUT_BASE,
    REFERENCE_TIME_SCALE,
    AckCorrelator,
    ReplicaPool,
    scaled_timeout,
)
from repro.gateway.service import GatewayConfig, GatewayService
from repro.multishot.block import GENESIS_DIGEST, Block
from repro.net.cluster import allocate_ports
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
    FrameBuffer,
    MetricsReply,
    MetricsRequest,
    SnapshotRequest,
    StartRun,
)
from repro.smr.mempool import Transaction
from repro.verification.audit import replay_chain

HOST = "127.0.0.1"


# -- timeout derivation (the hard-coded waits are gone) -----------------------


def test_scaled_timeout_reproduces_the_historical_constants_exactly():
    # At the reference smoke time scale the old 15-second constants
    # come back bit-for-bit — A7 smoke behaviour is unchanged.
    assert scaled_timeout(CONNECT_TIMEOUT_BASE, REFERENCE_TIME_SCALE) == 15.0
    assert scaled_timeout(COLLECT_TIMEOUT_BASE, REFERENCE_TIME_SCALE) == 15.0


def test_scaled_timeout_grows_linearly_above_the_reference_scale():
    assert scaled_timeout(15.0, 2 * REFERENCE_TIME_SCALE) == 30.0
    assert scaled_timeout(15.0, 4 * REFERENCE_TIME_SCALE) == 60.0


def test_scaled_timeout_keeps_the_base_as_floor_below_the_reference():
    # Process spawn and socket accept do not speed up with the
    # protocol clock, so a fast cluster keeps the full base.
    assert scaled_timeout(15.0, REFERENCE_TIME_SCALE / 5) == 15.0
    assert scaled_timeout(15.0, 1e-9) == 15.0


def test_pool_timeouts_derive_from_time_scale():
    pool = ReplicaPool({0: (HOST, 1)}, time_scale=0.2)
    assert pool.connect_timeout == pytest.approx(60.0)
    assert pool.collect_timeout == pytest.approx(60.0)


# -- AckCorrelator ------------------------------------------------------------


def _ack(txid: str, slot: int = 3, node_id: int = 0) -> CommitAck:
    return CommitAck(node_id=node_id, txid=txid, slot=slot)


def test_correlator_yields_one_latency_sample_per_new_ack():
    correlator = AckCorrelator()
    correlator.record_submit("t1", now=10.0)
    assert correlator.record_ack(0, _ack("t1"), now=10.5) == pytest.approx(0.5)
    assert correlator.record_ack(1, _ack("t1"), now=11.0) == pytest.approx(1.0)
    assert correlator.latency_samples == pytest.approx([0.5, 1.0])
    assert correlator.ack_count("t1") == 2


def test_correlator_ignores_duplicate_and_unknown_acks():
    correlator = AckCorrelator()
    correlator.record_submit("t1", now=0.0)
    assert correlator.record_ack(0, _ack("t1"), now=1.0) is not None
    assert correlator.record_ack(0, _ack("t1"), now=2.0) is None  # duplicate
    assert correlator.record_ack(0, _ack("never-sent"), now=2.0) is None
    assert correlator.latency_samples == pytest.approx([1.0])


def test_correlator_all_acked_requires_every_live_replica():
    correlator = AckCorrelator()
    correlator.track_nodes([0, 1, 2])
    correlator.record_submit("t1", now=0.0)
    correlator.record_ack(0, _ack("t1"), now=1.0)
    assert not correlator.all_acked({0, 1, 2})
    correlator.record_ack(1, _ack("t1"), now=1.0)
    correlator.record_ack(2, _ack("t1"), now=1.0)
    assert correlator.all_acked({0, 1, 2})
    # Excluding a replica shrinks the quorum the check runs over.
    assert correlator.all_acked({0, 1})
    assert not correlator.all_acked(set())


def test_correlator_first_ack_wins_the_slot():
    correlator = AckCorrelator()
    correlator.record_submit("t1", now=0.0)
    correlator.record_ack(0, _ack("t1", slot=7), now=1.0)
    correlator.record_ack(1, _ack("t1", slot=9), now=1.0)
    assert correlator.slots["t1"] == 7


# -- ReplicaPool against scripted in-process replicas -------------------------


class FakeReplica:
    """A scripted replica client port: acks submissions, answers
    snapshot/collect, streams :attr:`chain` to followers, records
    everything it saw."""

    def __init__(self, node_id: int, port: int) -> None:
        self.node_id = node_id
        self.port = port
        self.received: list[object] = []
        self.server: asyncio.Server | None = None
        #: The blocks this replica has executed, in order.
        self.chain: list[Block] = []
        self.followers: list[asyncio.StreamWriter] = []
        #: Seconds to sit on a MetricsRequest before answering it.
        self.metrics_delay = 0.0

    async def start(self) -> None:
        self.server = await asyncio.start_server(self._serve, HOST, self.port)

    def execute(self, *blocks: Block) -> None:
        """Execute ``blocks``: each goes to every follower as it would."""
        for block in blocks:
            self.chain.append(block)
            for writer in self.followers:
                writer.write(WIRE_CODEC.encode_frame(BlockExecuted(self.node_id, block)))

    async def _serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        buffer = FrameBuffer(WIRE_CODEC)
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                for message in buffer.feed(data):
                    self.received.append(message)
                    if isinstance(message, Follow):
                        self.followers.append(writer)
                    if isinstance(message, MetricsRequest):
                        await asyncio.sleep(self.metrics_delay)
                    for reply in self._replies(message):
                        writer.write(WIRE_CODEC.encode_frame(reply))
                    await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    def _replies(self, message: object) -> list[object]:
        # Each submit frame is acked as one block, in the slot that is
        # its position in what this replica has received.
        slot = len(self.received)
        if isinstance(message, ClientSubmit):
            return [CommitAck(node_id=self.node_id, txid=message.txn.txid, slot=slot)]
        if isinstance(message, ClientSubmitBatch):
            txids = tuple(txn.txid for txn in message.txns)
            return [CommitAckBatch(node_id=self.node_id, slot=slot, txids=txids)]
        if isinstance(message, MetricsRequest):
            return [MetricsReply(node_id=self.node_id)]
        if isinstance(message, Follow):
            return [
                BlockExecuted(self.node_id, block)
                for block in self.chain
                if block.slot > message.since_height
            ]
        if isinstance(message, (SnapshotRequest, CollectRequest)):
            return [
                CollectReply(
                    node_id=self.node_id,
                    chain=(),
                    state_digest=f"digest-{self.node_id}",
                    applied_txids=(),
                    blocks_applied=0,
                    txns_applied=0,
                )
            ]
        return []

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        for writer in self.followers:
            writer.close()


async def _fake_cluster(n: int) -> tuple[list[FakeReplica], dict[int, tuple[str, int]]]:
    ports = allocate_ports(n)
    replicas = [FakeReplica(node_id, ports[node_id]) for node_id in range(n)]
    for replica in replicas:
        await replica.start()
    return replicas, {replica.node_id: (HOST, replica.port) for replica in replicas}


async def _wait_for(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise AssertionError("condition not reached within timeout")


def _txn(i: int) -> Transaction:
    return Transaction(txid=f"t{i}", op=("noop",))


def test_pool_submits_reach_every_replica_and_acks_flow_back():
    acks = []

    async def scenario():
        replicas, addrs = await _fake_cluster(3)
        pool = ReplicaPool(addrs, on_ack=lambda nid, ack: acks.append((nid, ack.txid)))
        await pool.connect()
        pool.start_run()
        pool.submit(_txn(0))
        await _wait_for(lambda: len(acks) == 3)
        for replica in replicas:
            kinds = [type(m).__name__ for m in replica.received]
            assert kinds == ["StartRun", "ClientSubmit"]
            replica.close()
        pool.close()

    asyncio.run(scenario())
    assert sorted(acks) == [(0, "t0"), (1, "t0"), (2, "t0")]


def test_pool_submit_many_degenerates_singleton_to_bare_submit():
    async def scenario():
        replicas, addrs = await _fake_cluster(1)
        pool = ReplicaPool(addrs)
        await pool.connect()
        pool.submit_many([_txn(1)])
        pool.submit_many([_txn(2), _txn(3)])
        pool.submit_many([])  # no frame at all
        await _wait_for(lambda: len(replicas[0].received) == 2)
        single, batch = replicas[0].received
        assert isinstance(single, ClientSubmit) and single.txn.txid == "t1"
        assert isinstance(batch, ClientSubmitBatch)
        assert [txn.txid for txn in batch.txns] == ["t2", "t3"]
        replicas[0].close()
        pool.close()

    asyncio.run(scenario())


def _kinds(replica: FakeReplica) -> list[str]:
    return [type(m).__name__ for m in replica.received]


def test_pool_coalesces_one_tick_of_submits_into_one_frame_per_replica():
    acks = []

    async def scenario():
        replicas, addrs = await _fake_cluster(3)
        pool = ReplicaPool(addrs, on_ack=lambda nid, ack: acks.append((nid, ack.txid)))
        await pool.connect()
        for i in range(5):
            pool.submit(_txn(i))
        await _wait_for(lambda: len(acks) == 3 * 5)
        pool.submit(_txn(5))  # a tick of its own: the bare frame
        await _wait_for(lambda: len(acks) == 3 * 6)
        for replica in replicas:
            batch, single = replica.received
            assert isinstance(batch, ClientSubmitBatch)
            assert [txn.txid for txn in batch.txns] == ["t0", "t1", "t2", "t3", "t4"]
            assert isinstance(single, ClientSubmit) and single.txn.txid == "t5"
            replica.close()
        pool.close()

    asyncio.run(scenario())


async def _collect(pool: ReplicaPool) -> None:
    await pool.collect(timeout=5.0)


async def _snapshot(pool: ReplicaPool) -> None:
    await pool.snapshot(timeout=5.0)


async def _scrape(pool: ReplicaPool) -> None:
    await pool.scrape(timeout=5.0)


async def _send_to_each(pool: ReplicaPool) -> None:
    for node_id in sorted(pool.live):
        pool.send_to(node_id, StartRun())


@pytest.mark.parametrize(
    "then, follow_up",
    [
        (_collect, "CollectRequest"),
        (_snapshot, "SnapshotRequest"),
        (_scrape, "MetricsRequest"),
        (_send_to_each, "StartRun"),
    ],
)
def test_queued_submits_go_out_before_any_frame_written_after_them(then, follow_up):
    """A frame the pool writes directly in the same tick as a submit
    must not overtake the queued submit on any connection."""

    async def scenario():
        replicas, addrs = await _fake_cluster(3)
        pool = ReplicaPool(addrs)
        await pool.connect()
        pool.submit(_txn(0))
        await then(pool)
        await _wait_for(lambda: all(len(r.received) == 2 for r in replicas))
        for replica in replicas:
            assert _kinds(replica) == ["ClientSubmit", follow_up]
            replica.close()
        pool.close()

    asyncio.run(scenario())


def test_pool_fans_a_commit_ack_batch_out_once_per_txid_in_order():
    acks = []

    async def scenario():
        replicas, addrs = await _fake_cluster(2)
        pool = ReplicaPool(addrs, on_ack=lambda nid, ack: acks.append((nid, ack)))
        await pool.connect()
        pool.submit_many([_txn(1), _txn(2), _txn(3)])
        await _wait_for(lambda: len(acks) == 2 * 3)
        for replica in replicas:
            replica.close()
        pool.close()

    asyncio.run(scenario())
    for node_id in (0, 1):
        # The fake acks its first frame as the block in slot 1.
        assert [ack for nid, ack in acks if nid == node_id] == [
            CommitAck(node_id=node_id, txid=txid, slot=1) for txid in ("t1", "t2", "t3")
        ]


def test_a_reply_after_its_timeout_does_not_answer_the_next_request():
    """A replica answers its connection's requests in order, so a scrape
    reply that comes after the scrape gave up is owed to that scrape:
    the collect behind it must get the CollectReply, not the late
    MetricsReply."""

    async def scenario():
        replicas, addrs = await _fake_cluster(1)
        replicas[0].metrics_delay = 0.3
        pool = ReplicaPool(addrs)
        await pool.connect()
        assert await pool.scrape(timeout=0.1) == {}
        collected = await pool.collect(timeout=5.0)
        assert list(collected) == [0]
        assert isinstance(collected[0], CollectReply)
        scraped = await pool.scrape(timeout=5.0)
        assert list(scraped) == [0]
        assert isinstance(scraped[0], MetricsReply)
        replicas[0].close()
        pool.close()

    asyncio.run(scenario())


def test_pool_snapshot_gathers_a_reply_per_replica_without_shutdown():
    async def scenario():
        replicas, addrs = await _fake_cluster(3)
        pool = ReplicaPool(addrs)
        await pool.connect()
        replies = await pool.snapshot(timeout=5.0)
        assert sorted(replies) == [0, 1, 2]
        assert replies[1].state_digest == "digest-1"
        # The read path is repeatable: replicas are still serving.
        again = await pool.snapshot(timeout=5.0)
        assert sorted(again) == [0, 1, 2]
        for replica in replicas:
            assert [type(m).__name__ for m in replica.received] == [
                "SnapshotRequest",
                "SnapshotRequest",
            ]
            replica.close()
        pool.close()

    asyncio.run(scenario())


def test_pool_excluded_replica_gets_no_frames_and_no_collect():
    async def scenario():
        replicas, addrs = await _fake_cluster(3)
        pool = ReplicaPool(addrs)
        await pool.connect()
        pool.exclude(2)
        pool.submit(_txn(0))
        replies = await pool.collect(timeout=5.0)
        assert sorted(replies) == [0, 1]
        assert replicas[2].received == []
        for replica in replicas:
            replica.close()
        pool.close()

    asyncio.run(scenario())


def test_pool_collect_skips_a_replica_that_dies_mid_request():
    deaths = []

    async def scenario():
        replicas, addrs = await _fake_cluster(2)
        pool = ReplicaPool(addrs, on_death=deaths.append)
        await pool.connect()
        # Replica 1 vanishes before the collect: its server stops
        # accepting and its open connection is torn down.
        replicas[1].close()
        assert replicas[1].server is not None
        replicas[1].server.close()
        await replicas[1].server.wait_closed()
        for conn in pool._conns.values():
            if conn.node_id == 1 and conn.sock is not None:
                conn.sock.close()
        await _wait_for(lambda: 1 in deaths)
        replies = await pool.collect(timeout=5.0)
        assert sorted(replies) == [0]
        replicas[0].close()
        pool.close()

    asyncio.run(scenario())


def test_pool_reports_a_replica_whose_bytes_do_not_decode_as_dead():
    """A replica connection that sends garbage is closed and reported
    through ``on_death``; the pool keeps serving the other replica."""
    deaths = []
    hung_up = []

    async def babble(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        writer.write(b"\x00\x00\x00\x05" + b"\xff" * 5)
        hung_up.append(await reader.read() == b"")  # EOF: the pool closed it
        writer.close()

    async def scenario():
        replicas, addrs = await _fake_cluster(1)
        rogue_port = allocate_ports(1)[0]
        rogue = await asyncio.start_server(babble, HOST, rogue_port)
        pool = ReplicaPool({**addrs, 1: (HOST, rogue_port)}, on_death=deaths.append)
        await pool.connect()
        await _wait_for(lambda: deaths == [1] and hung_up == [True])
        assert pool.live == {0}
        replies = await pool.snapshot(timeout=5.0)
        assert sorted(replies) == [0]
        replicas[0].close()
        rogue.close()
        pool.close()

    asyncio.run(scenario())


def _kv_chain(count: int) -> list[Block]:
    """An honest chain of ``count`` blocks, one increment each, with an
    empty block every third slot."""
    chain: list[Block] = []
    parent = GENESIS_DIGEST
    for slot in range(1, count + 1):
        payload = () if slot % 3 == 0 else (Transaction(f"b{slot}", ("incr", "k", slot)),)
        chain.append(Block.create(slot, parent, payload))
        parent = chain[-1].digest
    return chain


def test_pool_hands_a_followed_block_to_on_block_then_its_txns_to_on_ack():
    calls = []

    async def scenario():
        replicas, addrs = await _fake_cluster(1)
        replicas[0].chain = _kv_chain(3)
        pool = ReplicaPool(
            addrs, on_ack=lambda nid, ack: calls.append(("ack", nid, ack.txid, ack.slot))
        )
        pool.on_block = lambda nid, block: calls.append(("block", nid, block.slot))
        await pool.connect()
        pool.follow(lambda: 1)
        await _wait_for(lambda: len(calls) == 3)
        replicas[0].close()
        pool.close()

    asyncio.run(scenario())
    # The suffix above height 1: block 2 (one txn), then the empty block 3.
    assert calls == [("block", 0, 2), ("ack", 0, "b2", 2), ("block", 0, 3)]


def test_a_restarted_replica_resumes_its_stream_with_no_gap_and_no_double_apply():
    """The gateway follows four replicas; replica 3 dies and comes back
    on the same port.  ``readmit`` follows it again from the gateway's
    applied height, and once only replicas 2 and 3 (f+1) are left the
    gateway's progress rests on the resumed stream."""

    async def scenario():
        replicas, addrs = await _fake_cluster(4)
        chain = _kv_chain(12)
        for replica in replicas:
            replica.chain = chain[:3]
        pool = ReplicaPool(addrs)
        service = GatewayService(pool, GatewayConfig(n=4))
        await pool.connect()
        await service.start(start_consensus=False)
        await _wait_for(lambda: service.height == 3)

        dead = replicas[3]
        dead.close()
        dead.server.close()
        await dead.server.wait_closed()
        await _wait_for(lambda: 3 not in pool.live)
        for replica in replicas[:3]:
            replica.execute(*chain[3:6])
        await _wait_for(lambda: service.height == 6)

        # Back from disk with a chain that ends short of the gateway's.
        reborn = FakeReplica(3, dead.port)
        reborn.chain = chain[:5]
        await reborn.start()
        await pool.readmit(3)
        await _wait_for(lambda: any(isinstance(m, Follow) for m in reborn.received))
        assert [m for m in reborn.received if isinstance(m, Follow)] == [Follow(since_height=6)]
        reborn.execute(chain[5])  # it catches up to where the gateway is

        for replica in replicas[:2]:
            replica.close()
        for replica in (replicas[2], reborn):
            replica.execute(*chain[6:])
        await _wait_for(lambda: service.height == 12)
        assert service.read_state("k").supported_by == 2
        for replica in (replicas[2], reborn):
            replica.close()
        pool.close()
        return service

    service = asyncio.run(scenario())
    assert service._chain == _kv_chain(12)
    expected = replay_chain(tuple(_kv_chain(12)))
    assert service._store.state_digest() == expected.state_digest()
    applied = [f"b{slot}" for slot in range(1, 13) if slot % 3]
    assert service._store.applied_txids == applied
