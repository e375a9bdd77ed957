"""Deployed-cluster integration: real processes, audited end to end.

These tests spawn actual OS processes wired over localhost TCP — the
acceptance surface of the deployment subsystem:

* an n=4 TetraBFT cluster executes a client workload, every replica's
  collected chain and state digest passes the full
  :class:`~repro.verification.audit.SafetyAuditor`, and all four state
  digests are byte-identical;
* SIGTERMing one replica mid-run (n=4 tolerates f=1) still finalizes
  the whole workload on the survivors, audited the same way, and each
  survivor times out the dead replica's slots as soon as its
  connection to it drops;
* the engine registry carries over: a chained baseline engine runs the
  identical client path over sockets;
* a replica acks per block: a raw client connection sees at most one
  ack frame per executed block, covering exactly the applied log;
  in process, with a fake client connection, a block that applied
  one txid is acked with a bare ``CommitAck``, one that applied
  several with one ``CommitAckBatch``, and an empty block not at all;
* a connection that sends ``Follow`` mid-run gets the executed suffix
  and then every block as it executes, empty ones included, with no
  gap and no repeat, while the ack connections beside it are served
  as before.

Each run takes on the order of a second; the module stays tier-1 so
the deployment path cannot rot silently between PRs.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.multishot.block import GENESIS_DIGEST, Block
from repro.net.client import ReplicaPool
from repro.net.cluster import (
    ClusterConfig,
    allocate_ports,
    build_specs,
    cluster_processes,
    reply_metric,
    run_cluster_workload,
    sized_max_slots,
)
from repro.net.codec import (
    MAX_TXN_DEPTH,
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
)
from repro.net.replica_main import ReplicaProcess, _ClientPort
from repro.smr.mempool import Transaction
from repro.storage import DiskStorage
from repro.storage.wal import read_wal
from repro.verification.audit import SafetyAuditor


def _schedule(count: int, rate: float = 10.0):
    """A deterministic uniform-ish workload: counters + key writes."""
    out = []
    for k in range(count):
        if k % 3 == 0:
            txn = Transaction(f"net-{k}", ("incr", f"counter-{k % 4}", 1))
        else:
            txn = Transaction(f"net-{k}", ("set", f"key-{k % 7}", k))
        out.append((k / rate, txn))
    return out


def test_cluster_run_finalizes_and_passes_audit():
    schedule = _schedule(30)
    result = run_cluster_workload(ClusterConfig(n=4, engine="tetrabft", deadline=25.0), schedule)
    assert result.completed, "live replicas did not ack the whole workload"
    assert result.injected == 30
    assert result.committed == 30
    assert not result.killed and not result.unexpected_deaths
    assert result.txns_per_sec > 0
    # One latency sample per (replica, transaction) observation.
    assert len(result.latency_samples) == 4 * 30
    assert all(sample > 0 for sample in result.latency_samples)
    # Evidence from all four replicas, all passing the full audit.
    assert [ev.node_id for ev in result.evidence] == [0, 1, 2, 3]
    report = SafetyAuditor(expected_txns=result.injected).audit_evidence(result.evidence)
    assert report.safe and report.live, report.violations
    digests = {ev.state_digest for ev in result.evidence}
    assert len(digests) == 1, "replicas diverged over real sockets"


def test_killing_one_replica_still_finalizes():
    """n=4 tolerates f=1: SIGTERM mid-workload, survivors finish."""
    schedule = _schedule(40)
    result = run_cluster_workload(
        ClusterConfig(n=4, engine="tetrabft", deadline=25.0),
        schedule,
        kill_after=(2, 0.5),
    )
    assert result.killed == (2,)
    assert not result.unexpected_deaths
    assert result.completed, "survivors did not finalize the workload"
    assert result.committed == 40
    # Evidence comes from the three survivors only.
    assert [ev.node_id for ev in result.evidence] == [0, 1, 3]
    report = SafetyAuditor(expected_txns=result.injected).audit_evidence(result.evidence)
    assert report.safe and report.live, report.violations
    # The dead replica's leader slots timed out into view 1, and the
    # survivors' scraped counters say so.
    assert any(
        reply_metric(reply, "consensus.view_changes") > 0 for reply in result.replies.values()
    )


def test_survivors_time_out_a_dead_leaders_slots_at_once():
    """Each survivor's lane to the killed replica reports the lost
    connection, and the slots that replica leads time out at once
    (``consensus.leader_lost_timeouts``) instead of after 9Δ."""
    result = run_cluster_workload(
        ClusterConfig(n=4, engine="tetrabft", deadline=25.0),
        _schedule(40),
        kill_after=(2, 0.5),
    )
    assert result.killed == (2,) and result.completed
    report = SafetyAuditor(expected_txns=result.injected).audit_evidence(result.evidence)
    assert report.safe and report.live, report.violations
    assert sorted(result.replies) == [0, 1, 3]
    for reply in result.replies.values():
        assert reply_metric(reply, "consensus.leader_lost_timeouts") > 0


def test_chained_engine_runs_over_sockets():
    """The engine registry carries over the wire: PBFT end to end."""
    schedule = _schedule(20)
    result = run_cluster_workload(ClusterConfig(n=4, engine="pbft", deadline=25.0), schedule)
    assert result.completed and result.committed == 20
    report = SafetyAuditor(expected_txns=result.injected).audit_evidence(result.evidence)
    assert report.safe and report.live, report.violations


def _deep_set(txid: str, depth: int) -> Transaction:
    """A ``set`` whose value nests so the transaction has ``depth``."""
    value: object = 1
    for _ in range(depth - 2):  # the transaction and its op are 2 levels
        value = (value,)
    txn = Transaction(txid, ("set", txid, value))
    assert WIRE_CODEC.nesting_depth(txn) == depth
    return txn


def test_deepest_admitted_transaction_finalizes_and_survives_the_wal(tmp_path):
    """A transaction at the client port's depth limit rides the deepest
    envelope there is (a chained engine's batched proposal) to every
    replica, and each replica's WAL reads it back untorn."""
    deep = _deep_set("deep", MAX_TXN_DEPTH)
    schedule = _schedule(6) + [(0.7, deep)]
    result = run_cluster_workload(
        ClusterConfig(n=4, engine="pbft", deadline=25.0, data_dir=str(tmp_path)), schedule
    )
    assert result.completed and result.committed == 7
    report = SafetyAuditor(expected_txns=result.injected).audit_evidence(result.evidence)
    assert report.safe and report.live, report.violations
    for node_id in range(4):
        records, torn = read_wal(tmp_path / f"replica-{node_id}" / "wal.log")
        assert not torn
        assert deep in (txn for record in records for txn in record.block.payload)


def test_writes_that_cannot_apply_neither_stop_the_cluster_nor_tear_the_wal(tmp_path):
    """``set k "x"``, then ``incr k 1`` on that string, then ``set``
    without a value: each is a no-op that consumes its txid.  Every
    write, those three included, is acked by f+1 replicas, the chains
    agree, and every data dir recovers at least the whole collected
    chain with no torn tail."""
    poison = [
        Transaction("poison-set", ("set", "k", "x")),
        Transaction("poison-incr", ("incr", "k", 1)),
        Transaction("poison-arity", ("set", "k")),
    ]
    schedule = [(k / 10.0, txn) for k, txn in enumerate(poison)]
    schedule += [(0.3 + k / 10.0, txn) for k, (_, txn) in enumerate(_schedule(30))]
    result = run_cluster_workload(
        ClusterConfig(n=4, engine="tetrabft", deadline=25.0, data_dir=str(tmp_path)), schedule
    )
    assert result.completed
    for _, txn in schedule:
        acks = sum(txn.txid in acked for acked in result.acked.values())
        assert acks >= 2, f"{txn.txid} acked by {acks} replicas"
    report = SafetyAuditor(expected_txns=result.injected).audit_evidence(result.evidence)
    assert report.safe and report.live, report.violations
    for evidence in result.evidence:
        recovered = DiskStorage(tmp_path / f"replica-{evidence.node_id}").recover()
        assert not recovered.torn_tail
        # The WAL may hold a block executed after the collect answered.
        chain = [b.digest for b in evidence.chain]
        assert [b.digest for b in recovered.chain][: len(chain)] == chain


def test_client_port_drops_transactions_too_deep_for_a_batched_proposal():
    """One level past MAX_TXN_DEPTH still decodes at the client port,
    but not inside the chained engines' batched proposal: the replica
    leaves it out of its mempool, and keeps the rest of the batch."""
    fits = _deep_set("fits", MAX_TXN_DEPTH)
    too_deep = _deep_set("too-deep", MAX_TXN_DEPTH + 1)
    plain = Transaction("plain", ("set", "k", 1))

    class _Transport:
        def close(self) -> None:
            pass

    async def scenario() -> ReplicaProcess:
        process = ReplicaProcess(build_specs(ClusterConfig(n=4, max_slots=8))[0])
        port = _ClientPort(process)
        port.connection_made(_Transport())
        for message in (ClientSubmit(too_deep), ClientSubmitBatch((fits, too_deep, plain))):
            port.data_received(WIRE_CODEC.encode_frame(message))
        port.connection_lost(None)
        return process

    process = asyncio.run(scenario())
    batch = process.replica.mempool.next_batch()
    assert [txn.txid for txn in batch] == ["fits", "plain"]


def test_client_port_closes_only_a_connection_whose_bytes_do_not_decode():
    """Garbage on one client connection closes that connection and
    leaves one ``anomaly`` event; a second connection is served."""
    spec = build_specs(ClusterConfig(n=4, max_slots=8))[0]
    garbage = b"\x00\x00\x00\x05" + b"\xff" * 5

    async def connect():
        for _ in range(200):
            try:
                return await asyncio.open_connection(spec.host, spec.client_port)
            except OSError:
                await asyncio.sleep(0.01)
        raise AssertionError("client port never opened")

    async def scenario() -> tuple[ReplicaProcess, object]:
        process = ReplicaProcess(spec)
        run = asyncio.ensure_future(process.run())
        reader, writer = await connect()
        writer.write(garbage)
        assert await asyncio.wait_for(reader.read(), 5.0) == b""  # closed on us
        writer.close()
        reader, writer = await connect()
        writer.write(WIRE_CODEC.encode_frame(MetricsRequest()))
        buffer = FrameBuffer(WIRE_CODEC)
        reply = None
        while reply is None:
            data = await asyncio.wait_for(reader.read(65536), 5.0)
            assert data, "the second connection was closed too"
            reply = next((m for m in buffer.feed(data) if isinstance(m, MetricsReply)), None)
        writer.write(WIRE_CODEC.encode_frame(CollectRequest()))
        await asyncio.wait_for(run, 10.0)
        writer.close()
        return process, reply

    process, reply = asyncio.run(scenario())
    assert reply.node_id == spec.node_id
    anomalies = [event for event in process.events.tail() if event["kind"] == "anomaly"]
    assert len(anomalies) == 1 and "magic" in anomalies[0]["payload"]["error"]


BURSTS = 6
BURST = 5


#: The height a mid-run follower asks for the chain above.
FOLLOW_SINCE = 2


async def _watch_acks(specs, follow: bool) -> tuple[dict, dict, dict[int, CollectReply]]:
    """Drive bursts of submits through a pool while a second, raw client
    connection per replica records every frame that replica pushes, and
    (``follow``) a third one sends ``Follow(FOLLOW_SINCE)`` halfway
    through and records what it is streamed."""
    pool = ReplicaPool.from_specs(specs)
    await pool.connect()
    seen: dict[int, list] = {spec.node_id: [] for spec in specs}
    followed: dict[int, list] = {spec.node_id: [] for spec in specs}

    async def record(frames: list, reader: asyncio.StreamReader) -> None:
        buffer = FrameBuffer(WIRE_CODEC)
        while data := await reader.read(65536):
            frames.extend(buffer.feed(data))

    async def open_raw(spec, frames: list) -> None:
        reader, writer = await asyncio.open_connection(spec.host, spec.client_port)
        raw.append((asyncio.ensure_future(record(frames, reader)), writer))

    raw = []
    for spec in specs:
        await open_raw(spec, seen[spec.node_id])
    pool.start_run()
    txids = set()
    for burst in range(BURSTS):
        if follow and burst == BURSTS // 2:
            for spec in specs:
                await open_raw(spec, followed[spec.node_id])
                raw[-1][1].write(WIRE_CODEC.encode_frame(Follow(FOLLOW_SINCE)))
        for k in range(BURST):
            txn = Transaction(f"blk-{burst}-{k}", ("set", f"key-{k}", burst))
            pool.submit(txn)
            txids.add(txn.txid)
        await asyncio.sleep(0.05)
    deadline = time.monotonic() + 20.0
    while not all(txids <= set(_acked_txids(frames)) for frames in seen.values()):
        assert time.monotonic() < deadline, "raw connections never saw every ack"
        await asyncio.sleep(0.05)
    replies = await pool.collect()
    for task, writer in raw:
        await task  # the replica closes the connection once collected
        writer.close()
    pool.close()
    return seen, followed, replies


def _acked_txids(frames) -> list[str]:
    return [
        txid
        for frame in frames
        for txid in (frame.txids if isinstance(frame, CommitAckBatch) else (frame.txid,))
    ]


def _run_watched(follow: bool = False) -> tuple[dict, dict, dict[int, CollectReply]]:
    config = ClusterConfig(n=4, engine="tetrabft", deadline=25.0)
    config = replace(config, max_slots=sized_max_slots(config, BURSTS * BURST))
    with cluster_processes(config) as (specs, _processes):
        return asyncio.run(_watch_acks(specs, follow))


def test_replicas_ack_once_per_block_over_real_sockets():
    seen, _followed, replies = _run_watched()
    assert sorted(replies) == [0, 1, 2, 3]
    for node_id, frames in seen.items():
        reply = replies[node_id]
        assert all(isinstance(f, (CommitAck, CommitAckBatch)) for f in frames)
        # Acks arrive in execution order and cover the applied log.
        assert _acked_txids(frames) == list(reply.applied_txids)
        # At most one ack frame per executed block, naming only that
        # block's transactions.
        payloads = {b.slot: {t.txid for t in b.payload} for b in reply.chain}
        slots = [frame.slot for frame in frames]
        assert len(slots) == len(set(slots))
        assert len(frames) <= sum(1 for txids in payloads.values() if txids)
        for frame in frames:
            assert set(_acked_txids([frame])) <= payloads[frame.slot]
        # The client-port counters: StartRun, one frame per burst, the
        # collect in; the same ack frames to the pool and to the raw
        # connection out.
        assert reply_metric(reply, "net.client_frames_in") == BURSTS + 2
        assert reply_metric(reply, "net.client_frames_out") == 2 * len(frames)
    # Bursts of five share a block: the batch form is actually used.
    assert any(isinstance(f, CommitAckBatch) for frames in seen.values() for f in frames)


def test_a_block_is_acked_as_one_bare_ack_one_batch_or_nothing():
    """In process, with a fake client connection: one tick executes a
    block that applied one txid, one that applied three, and an empty
    one.  The client gets a bare ``CommitAck``, a ``CommitAckBatch``,
    and nothing for the empty block, in one write."""
    node_id = 0
    blocks = [
        Block.create(1, GENESIS_DIGEST, (Transaction("solo", ("set", "k", 1)),)),
        Block.create(2, "p1", tuple(Transaction(t, ("set", t, 1)) for t in ("a", "b", "c"))),
        Block.create(3, "p2", ()),
    ]

    class _Transport:
        def __init__(self) -> None:
            self.writes: list[bytes] = []

        def write(self, data: bytes) -> None:
            self.writes.append(data)

        def is_closing(self) -> bool:
            return False

        def close(self) -> None:
            pass

    async def scenario() -> tuple[ReplicaProcess, _Transport]:
        process = ReplicaProcess(build_specs(ClusterConfig(n=4, max_slots=8))[node_id])
        sock = _Transport()
        _ClientPort(process).connection_made(sock)
        for block in blocks:
            process.replica._execute_block(block)
        await asyncio.sleep(0)  # the tick's acks leave via call_soon
        return process, sock

    process, sock = asyncio.run(scenario())
    assert len(sock.writes) == 1
    assert FrameBuffer(WIRE_CODEC).feed(sock.writes[0]) == [
        CommitAck(node_id, "solo", 1),
        CommitAckBatch(node_id, 2, ("a", "b", "c")),
    ]
    assert process.registry.snapshot()["net.client_frames_out"] == 2


def test_a_follower_is_streamed_every_executed_block_over_real_sockets():
    seen, followed, replies = _run_watched(follow=True)
    for node_id, frames in followed.items():
        reply = replies[node_id]
        assert all(type(f) is BlockExecuted and f.node_id == node_id for f in frames)
        # The suffix above FOLLOW_SINCE, then every block as it executed
        # (possibly a few past the collect): no gap, no repeat, and the
        # very blocks the replica reports as its chain.
        blocks = [f.block for f in frames if f.block.slot > FOLLOW_SINCE]
        first = FOLLOW_SINCE + 1
        assert [b.slot for b in blocks] == list(range(first, first + len(blocks)))
        assert blocks[: len(reply.chain) - FOLLOW_SINCE] == list(reply.chain[FOLLOW_SINCE:])
        assert any(not block.payload for block in blocks)  # empty blocks included
        # The ack connection beside it sees what it always saw.
        assert _acked_txids(seen[node_id]) == list(reply.applied_txids)


def test_cluster_config_validation():
    with pytest.raises(ConfigurationError, match="unknown engine"):
        ClusterConfig(n=4, engine="raft")
    with pytest.raises(ConfigurationError, match="n >= 1"):
        ClusterConfig(n=0)
    with pytest.raises(ConfigurationError, match="time_scale"):
        ClusterConfig(n=4, time_scale=0.0)
    with pytest.raises(ConfigurationError, match="outside"):
        run_cluster_workload(ClusterConfig(n=4, max_slots=None), [], kill_after=(9, 0.5))


def test_build_specs_lays_out_distinct_ports_and_full_meshes():
    config = ClusterConfig(n=4)
    specs = build_specs(config)
    assert [spec.node_id for spec in specs] == [0, 1, 2, 3]
    all_ports = [spec.peer_port for spec in specs] + [spec.client_port for spec in specs]
    assert len(set(all_ports)) == 8, "port collision in the layout"
    for spec in specs:
        peers = {pid for pid, _host, _port in spec.peer_addrs}
        assert peers == {0, 1, 2, 3} - {spec.node_id}
        # Every peer entry points at that peer's listening port.
        for pid, _host, port in spec.peer_addrs:
            assert port == specs[pid].peer_port


def test_allocate_ports_returns_distinct_free_ports():
    ports = allocate_ports(10)
    assert len(set(ports)) == 10
    assert all(port > 0 for port in ports)


def test_sized_max_slots_covers_the_whole_run():
    config = ClusterConfig(n=4, engine="tetrabft", deadline=30.0, link_latency=0.002)
    budget = sized_max_slots(config, injected=40)
    # The budget must exceed the worst-case empty-slot burn: one slot
    # per link delay for the entire deadline.
    assert budget is not None and budget > 30.0 / 0.002
    assert sized_max_slots(ClusterConfig(n=4, engine="pbft"), 40) is None
