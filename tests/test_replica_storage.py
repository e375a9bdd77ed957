"""Durability-layer contract tests: the WAL and its recovery edges.

The recovery invariant under test everywhere here: whatever the crash
did to the log, ``recover()`` returns the longest locally *provable*
finalized prefix — never a corrupt block, never a gapped chain — and
cuts the log back to it, so later appends extend that prefix.  Torn
tails are expected (a crash inside the fsync window), so they are
flagged, not fatal.
"""

from __future__ import annotations

import os
import stat
from dataclasses import replace

import pytest

from repro.core import ProtocolConfig
from repro.errors import ProtocolViolation
from repro.multishot import MultiShotConfig, MultiShotNode
from repro.multishot.block import GENESIS_DIGEST, Block, linked_run
from repro.net.cluster import ClusterConfig, build_specs
from repro.net.codec import (
    MAGIC,
    WIRE_CODEC,
    WIRE_VERSION,
    CodecError,
    FrameBuffer,
    StateTransferRequest,
    WalAppend,
)
from repro.net.replica_main import ReplicaProcess
from repro.obs import MetricsRegistry
from repro.sim import Simulation, SynchronousDelays
from repro.smr.kvstore import KVStore
from repro.smr.mempool import Transaction
from repro.smr.replica import Replica
from repro.storage import DiskStorage, MemoryStorage, WriteAheadLog, read_wal
from repro.storage.wal import WAL_RECORD_CAP, scan_wal


def make_chain(slots: int, txns_per_block: int = 2) -> list[Block]:
    """A hash-linked finalized chain with real transaction payloads."""
    chain: list[Block] = []
    parent = GENESIS_DIGEST
    counter = 0
    for slot in range(1, slots + 1):
        payload = tuple(
            Transaction(txid=f"tx-{counter + k}", op=("set", f"k{counter + k}", slot))
            for k in range(txns_per_block)
        )
        counter += txns_per_block
        block = Block.create(slot=slot, parent=parent, payload=payload)
        chain.append(block)
        parent = block.digest
    return chain


def persist(storage, blocks) -> None:
    """Hand each block to storage the way Replica does once it has
    executed it (DiskStorage reads nothing from the replica)."""
    for block in blocks:
        storage.block_executed(block, None)


# -- WAL ----------------------------------------------------------------------


def test_wal_round_trip(tmp_path):
    chain = make_chain(5)
    wal = WriteAheadLog(tmp_path / "wal.log")
    for block in chain:
        wal.append_block(block)
    wal.close()
    records, torn = read_wal(tmp_path / "wal.log")
    assert not torn
    assert [r.seq for r in records] == [1, 2, 3, 4, 5]
    assert [r.block for r in records] == chain


def test_wal_missing_file_is_empty_untorn(tmp_path):
    records, torn = read_wal(tmp_path / "nope.log")
    assert records == [] and not torn


def test_wal_flushes_at_record_cap_without_event_loop(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log")
    chain = make_chain(WAL_RECORD_CAP)
    for block in chain[:-1]:
        wal.append_block(block)
    # Below the cap with no loop running: nothing durable yet.
    assert read_wal(tmp_path / "wal.log")[0] == []
    wal.append_block(chain[-1])
    records, torn = read_wal(tmp_path / "wal.log")
    assert len(records) == WAL_RECORD_CAP == 64 and not torn
    wal.close()


def test_wal_torn_tail_partial_record(tmp_path):
    chain = make_chain(3)
    wal = WriteAheadLog(tmp_path / "wal.log")
    for block in chain:
        wal.append_block(block)
    wal.close()
    # Simulate a crash mid-write: half of a fourth record's frame.
    frame = WIRE_CODEC.encode_frame(WalAppend(seq=4, block=make_chain(4)[-1]))
    with open(tmp_path / "wal.log", "ab") as handle:
        handle.write(frame[: len(frame) // 2])
    records, torn = read_wal(tmp_path / "wal.log")
    assert torn
    assert [r.block for r in records] == chain  # the intact prefix survives


def test_wal_torn_tail_trailing_partial_length_word(tmp_path):
    chain = make_chain(2)
    wal = WriteAheadLog(tmp_path / "wal.log")
    for block in chain:
        wal.append_block(block)
    wal.close()
    with open(tmp_path / "wal.log", "ab") as handle:
        handle.write(b"\x00\x00")  # 2 of the 4 length bytes
    records, torn = read_wal(tmp_path / "wal.log")
    assert torn and len(records) == 2


def test_wal_garbage_record_stops_the_read(tmp_path):
    chain = make_chain(2)
    wal = WriteAheadLog(tmp_path / "wal.log")
    for block in chain:
        wal.append_block(block)
    wal.close()
    with open(tmp_path / "wal.log", "ab") as handle:
        handle.write(len(b"garbage!").to_bytes(4, "big") + b"garbage!")
    records, torn = read_wal(tmp_path / "wal.log")
    assert torn and len(records) == 2


def test_wal_truncated_mid_record(tmp_path):
    chain = make_chain(4)
    wal = WriteAheadLog(tmp_path / "wal.log")
    for block in chain:
        wal.append_block(block)
    wal.close()
    path = tmp_path / "wal.log"
    data = path.read_bytes()
    path.write_bytes(data[:-3])  # tear the last record
    records, torn = read_wal(path)
    assert torn
    assert [r.block for r in records] == chain[:3]


def test_wal_non_wal_frame_stops_the_read(tmp_path):
    """A decodable frame of the wrong type is corruption, not data."""
    chain = make_chain(1)
    wal = WriteAheadLog(tmp_path / "wal.log")
    wal.append_block(chain[0])
    wal.close()
    with open(tmp_path / "wal.log", "ab") as handle:
        handle.write(WIRE_CODEC.encode_frame(Transaction("tx-x", ("noop",))))
    records, torn = read_wal(tmp_path / "wal.log")
    assert torn and len(records) == 1


# -- DiskStorage end to end ---------------------------------------------------


def test_disk_storage_recovers_wal_only(tmp_path):
    storage = DiskStorage(tmp_path)
    persist(storage, make_chain(3))
    storage.close()
    recovered = DiskStorage(tmp_path).recover()
    assert recovered is not None
    assert recovered.wal_blocks == 3 and not recovered.torn_tail
    assert [b.slot for b in recovered.chain] == [1, 2, 3]


def test_disk_storage_empty_dir_recovers_none(tmp_path):
    assert DiskStorage(tmp_path).recover() is None


def test_disk_storage_torn_wal_tail_recovers_prefix(tmp_path):
    storage = DiskStorage(tmp_path)
    persist(storage, make_chain(6))
    storage.close()
    wal_path = tmp_path / "wal.log"
    data = wal_path.read_bytes()
    wal_path.write_bytes(data[:-5])
    recovered = DiskStorage(tmp_path).recover()
    assert recovered is not None
    assert recovered.torn_tail
    assert [b.slot for b in recovered.chain] == [1, 2, 3, 4, 5]


def test_appends_after_a_torn_tail_survive_the_next_restart(tmp_path):
    """Recovery cuts the torn record off: the log is opened for append,
    so otherwise every later record would land behind bytes replay
    never reads past, and be lost at the next restart."""
    chain = make_chain(12)
    storage = DiskStorage(tmp_path)
    persist(storage, chain[:6])
    storage.close()
    wal_path = tmp_path / "wal.log"
    wal_path.write_bytes(wal_path.read_bytes()[:-5])
    restarted = DiskStorage(tmp_path)
    assert [b.slot for b in restarted.recover().chain] == [1, 2, 3, 4, 5]
    persist(restarted, chain[5:])
    restarted.close()
    again = DiskStorage(tmp_path)
    recovered = again.recover()
    assert [b.digest for b in recovered.chain] == [b.digest for b in chain]
    assert not recovered.torn_tail and again.recovered_blocks == 12
    # Sequence numbers carry on from the last record kept.
    assert [r.seq for r in read_wal(wal_path)[0]] == list(range(1, 13))
    assert again.wal.next_seq == 13
    again.close()


def test_disk_storage_wal_gap_stops_recovery(tmp_path):
    """A WAL whose records skip a slot proves nothing past the gap, and
    recovery cuts the log back to the linking prefix."""
    chain = make_chain(4)
    wal = WriteAheadLog(tmp_path / "wal.log")
    for block in chain[:2] + chain[3:]:  # slot 3 missing
        wal.append_block(block)
    wal.close()
    recovered = DiskStorage(tmp_path).recover()
    assert recovered is not None
    assert recovered.torn_tail
    assert [b.slot for b in recovered.chain] == [1, 2]
    records, torn = read_wal(tmp_path / "wal.log")
    assert [r.block for r in records] == chain[:2] and not torn


def _flip_payload_bit(wal_path, block: Block) -> int:
    """Flip one bit inside ``block``'s payload on disk, leaving the
    frame well formed; returns the offset of the record holding it."""
    data = bytearray(wal_path.read_bytes())
    txid = block.payload[0].txid.encode()
    at = data.index(txid)
    data[at + len(txid) - 1] ^= 0x01
    wal_path.write_bytes(bytes(data))
    offset = 0
    for record, end in scan_wal(bytes(data)):
        if record.block.slot == block.slot - 1:
            offset = end
    return offset


def test_disk_storage_corrupt_block_body_stops_recovery(tmp_path):
    """A body changed on disk no longer hashes to its digest, so its
    record does not decode and recovery stops before it."""
    chain = make_chain(4)
    wal = WriteAheadLog(tmp_path / "wal.log")
    for block in chain:
        wal.append_block(block)
    wal.close()
    _flip_payload_bit(tmp_path / "wal.log", chain[3])
    recovered = DiskStorage(tmp_path).recover()
    assert recovered is not None
    assert recovered.torn_tail
    assert [b.slot for b in recovered.chain] == [1, 2, 3]


def test_a_cut_keeps_the_bytes_it_cuts(tmp_path):
    """Damage to acknowledged records cuts the log where it starts, but
    the cut bytes are moved to ``wal.cut.<offset>`` first and counted."""
    chain = make_chain(20)
    storage = DiskStorage(tmp_path)
    persist(storage, chain)
    storage.close()
    wal_path = tmp_path / "wal.log"
    offset = _flip_payload_bit(wal_path, chain[4])
    damaged = wal_path.read_bytes()
    restarted = DiskStorage(tmp_path)
    recovered = restarted.recover()
    assert [b.slot for b in recovered.chain] == [1, 2, 3, 4]
    assert wal_path.read_bytes() == damaged[:offset]
    assert (tmp_path / f"wal.cut.{offset}").read_bytes() == damaged[offset:]
    assert restarted.cut_offset == offset
    assert restarted.cut_bytes == len(damaged) - offset > 0
    registry = MetricsRegistry()
    restarted.publish_metrics(registry)
    assert registry.snapshot()["storage.cut_bytes"] == restarted.cut_bytes
    restarted.close()


def test_a_replica_that_cuts_its_log_leaves_an_anomaly_event(tmp_path):
    chain = make_chain(6)
    storage = DiskStorage(tmp_path)
    persist(storage, chain)
    storage.close()
    offset = _flip_payload_bit(tmp_path / "wal.log", chain[2])
    length = (tmp_path / "wal.log").stat().st_size - offset
    spec = replace(build_specs(ClusterConfig(n=4, max_slots=8))[0], data_dir=str(tmp_path))
    process = ReplicaProcess(spec)
    process.storage.close()
    anomalies = [event for event in process.events.tail() if event["kind"] == "anomaly"]
    assert [event["payload"] for event in anomalies] == [
        {"wal_cut_offset": offset, "wal_cut_bytes": length}
    ]


def test_a_log_led_by_a_retired_seal_recovers_nothing(tmp_path):
    """Type id 81 (the retired WAL seal) no longer decodes: a data dir
    whose log starts with one recovers nothing locally, its log is cut
    to empty, and the replica rebuilds it from slot 1 via peers."""
    seal = bytes((MAGIC, WIRE_VERSION)) + bytes.fromhex(
        "005149000000000000000649000000000000000153000000027364"
    )
    wal_path = tmp_path / "wal.log"
    wal_path.write_bytes(len(seal).to_bytes(4, "big") + seal)
    storage = DiskStorage(tmp_path)
    assert storage.recover() is None
    assert wal_path.read_bytes() == b""
    storage.close()


def test_a_log_another_wire_version_wrote_refuses_to_recover(tmp_path):
    """A complete v5 record is not a torn tail: recovery names both
    versions and refuses, and the log's bytes stay where they are
    instead of being cut aside for a restart from genesis."""
    block = Block.create(1, GENESIS_DIGEST, (Transaction("t1", ("set", "k", 1)),))
    frame = bytearray(WIRE_CODEC.encode_frame(WalAppend(seq=1, block=block)))
    assert frame[4:6] == bytes((MAGIC, 6))
    frame[5] = 5
    wal_path = tmp_path / "wal.log"
    wal_path.write_bytes(bytes(frame))
    storage = DiskStorage(tmp_path)
    with pytest.raises(CodecError, match="wire v5, this build speaks v6"):
        storage.recover()
    storage.close()
    assert wal_path.read_bytes() == bytes(frame)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["wal.log"]


def test_creating_the_log_fsyncs_its_directory(tmp_path, monkeypatch):
    """The new file's directory entry must be durable; reopening an
    existing log adds no directory fsync."""
    real_fsync = os.fsync
    synced: list[bool] = []

    def recording_fsync(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    DiskStorage(tmp_path).close()
    assert synced == [True]
    synced.clear()
    DiskStorage(tmp_path).close()
    assert synced == []


def test_one_record_per_block_whatever_the_height(tmp_path, monkeypatch):
    """Every executed block grows the data dir by exactly its own WAL
    record, at height 10 as at height 510: nothing rewrites what is
    already on disk."""
    monkeypatch.setattr(os, "fsync", lambda fd: None)  # bytes, not durability
    chain = make_chain(510)
    storage = DiskStorage(tmp_path)
    wal_path = tmp_path / "wal.log"
    for phase in (chain[:10], chain[10:]):
        for block in phase:
            before = wal_path.stat().st_size
            storage.block_executed(block, None)
            storage.flush()
            record = WalAppend(seq=block.slot, block=block)
            assert wal_path.stat().st_size - before == len(WIRE_CODEC.encode_frame(record))
        assert [p.name for p in tmp_path.iterdir()] == ["wal.log"]
        assert wal_path.stat().st_size == storage.wal.bytes_written
    storage.close()


# -- replica integration ------------------------------------------------------


def _replica(node_id: int = 0, storage=None) -> Replica:
    config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=16)
    return Replica(node_id, config, storage=storage)


def test_replica_defaults_to_memory_storage():
    replica = _replica()
    assert isinstance(replica.storage, MemoryStorage)
    assert replica.storage.recover() is None


def test_replica_bootstrap_rebuilds_state(tmp_path):
    chain = make_chain(5)
    replica = _replica()
    replica.bootstrap(chain)
    assert [b.digest for b in replica.finalized_chain] == [b.digest for b in chain]
    # The executed state matches a store that applied every payload.
    expected = KVStore()
    for block in chain:
        for txn in block.payload:
            expected.apply(txn.txid, txn.op)
    assert replica.state_digest() == expected.state_digest()
    # A transaction the replayed chain executed is refused by submit.
    assert not replica.submit(chain[0].payload[0])
    assert replica.mempool.pending_count == 0


def test_replica_bootstrap_rejects_broken_chain():
    chain = make_chain(4)
    replica = _replica()
    with pytest.raises(ProtocolViolation):
        replica.bootstrap([chain[0], chain[2], chain[3]])


def test_replica_bootstrap_does_not_repersist(tmp_path):
    """Recovery replay must not re-append recovered blocks to the WAL."""
    chain = make_chain(4)
    storage = DiskStorage(tmp_path)
    replica = _replica(storage=storage)
    replica.bootstrap(chain)
    storage.close()
    records, _ = read_wal(tmp_path / "wal.log")
    assert records == []


def test_replica_offer_blocks_extends_the_bootstrapped_tip():
    chain = make_chain(8)
    replica = _replica()
    replica.bootstrap(chain[:4])
    advanced = replica.offer_blocks(chain[4:])
    # Bodies alone do not finalize: TetraBFT needs notarizations for
    # the offered slots, which a live rejoin gets from peer votes.  The
    # offer must simply never corrupt the recovered prefix.
    assert advanced >= 0
    assert [b.digest for b in replica.finalized_chain[:4]] == [
        b.digest for b in chain[:4]
    ]


class _Sock:
    """The client-port socket surface a reply is written to."""

    def __init__(self) -> None:
        self.data = bytearray()

    def write(self, data: bytes) -> None:
        self.data += data

    def is_closing(self) -> bool:
        return False


def _served(process: ReplicaProcess, since_slot: int):
    """The reply ``process`` writes to one ``StateTransferRequest``."""
    sock = _Sock()
    process._on_client_messages(sock, [StateTransferRequest(since_slot=since_slot)])
    (reply,) = FrameBuffer(WIRE_CODEC).feed(bytes(sock.data))
    return reply


def _bootstrapped_process(tmp_path, chain: list[Block]) -> ReplicaProcess:
    storage = DiskStorage(tmp_path)
    persist(storage, chain)
    storage.close()
    spec = replace(build_specs(ClusterConfig(n=4, max_slots=8))[0], data_dir=str(tmp_path))
    process = ReplicaProcess(spec)
    assert [b.digest for b in process.replica.finalized_chain] == [b.digest for b in chain]
    return process


def _live_process() -> ReplicaProcess:
    """A replica process serving replica 0 of a simulated n=4 cluster,
    whose chain its engine finalized (no bootstrap)."""
    replicas = [_replica(node_id=i) for i in range(4)]
    sim = Simulation(SynchronousDelays(1.0))
    sim.add_nodes(replicas)
    sim.run(until=40.0)
    process = ReplicaProcess(build_specs(ClusterConfig(n=4, max_slots=8))[0])
    process.replica = replicas[0]
    return process


@pytest.mark.parametrize("origin", ["live", "bootstrapped"])
def test_a_state_transfer_serves_the_chain_above_the_requested_slot(tmp_path, origin):
    if origin == "live":
        process = _live_process()
        chain = process.replica.finalized_chain
    else:
        chain = make_chain(6)
        process = _bootstrapped_process(tmp_path, chain)
    tip = chain[-1].slot
    assert tip >= 6
    for since_slot in (0, tip // 2, tip, tip + 5):
        reply = _served(process, since_slot)
        assert reply.tip_slot == tip
        assert [b.digest for b in reply.blocks] == [b.digest for b in chain if b.slot > since_slot]
    process.storage.close()


def test_catch_up_paths_take_no_copy_of_the_chain(tmp_path, monkeypatch):
    """The tip poll, a served transfer and an offered transfer read the
    executed blocks, never the engine's whole-chain copy."""
    chain = make_chain(6)
    process = _bootstrapped_process(tmp_path, chain)
    copies = []
    chain_copy = MultiShotNode.finalized_chain.fget
    monkeypatch.setattr(
        MultiShotNode,
        "finalized_chain",
        property(lambda node: copies.append(node) or chain_copy(node)),
    )
    assert process._finalized_tip() == (6, chain[-1].digest)
    assert [b.slot for b in _served(process, 3).blocks] == [4, 5, 6]
    assert process.replica.offer_blocks(chain[4:]) == 0
    assert copies == []
    process.storage.close()


def test_disk_storage_full_cycle_via_replica(tmp_path):
    """Persist through the real Replica hook path, then recover into a
    fresh Replica and compare digests — the restart cell in miniature.
    Blocks are fed straight to ``_execute_block`` (no engine run)."""
    chain = make_chain(7)
    storage = DiskStorage(tmp_path)
    replica = _replica(storage=storage)
    for block in chain:
        replica._execute_block(block)
    storage.close()

    recovered = DiskStorage(tmp_path).recover()
    assert recovered is not None
    assert [b.digest for b in recovered.chain] == [b.digest for b in chain]
    twin = _replica(node_id=1)
    twin.bootstrap(recovered.chain)
    assert twin.state_digest() == replica.state_digest()


# -- state-transfer reply validation ------------------------------------------


def test_transfer_suffix_extending_the_local_tip_is_accepted_whole():
    chain = make_chain(6)
    assert linked_run(tuple(chain[3:]), 3, chain[2].digest) == tuple(chain[3:])
    assert linked_run(tuple(chain), 0, GENESIS_DIGEST) == tuple(chain)
    # Leading blocks the asker already holds are skipped.
    assert linked_run(tuple(chain), 3, chain[2].digest) == tuple(chain[3:])


def test_transfer_suffix_forking_off_the_local_tip_is_rejected():
    ours, fork = make_chain(6), make_chain(6, txns_per_block=1)
    # Internally well linked and digest-valid, but its first parent is
    # the fork's block 3, not ours.
    assert linked_run(tuple(fork[3:]), 3, ours[2].digest) == ()
    # At height 0 the tip is genesis: slot 1 must name it as parent.
    orphan = Block.create(slot=1, parent=ours[0].digest, payload=())
    assert linked_run((orphan,), 0, GENESIS_DIGEST) == ()


def _not_a_block(reply):
    return reply[:2] + (reply[2].payload,) + reply[3:]


def _text_slot(reply):
    block = Block.create(slot=str(reply[2].slot), parent=reply[2].parent, payload=())
    return reply[:2] + (block,) + reply[3:]


def _forged(reply, **change):
    """A block's fields edited under its digest do not construct, so the
    forgery reaches the asker only as those fields, never as a block."""
    fields = {**vars(reply[2]), **change}
    with pytest.raises(ValueError, match="does not match its contents"):
        Block(**fields)
    return reply[:2] + (fields,) + reply[3:]


def _tampered_digest(reply):
    return _forged(reply, digest="f" * 16)


def _tampered_payload(reply):
    return _forged(reply, payload=())


def _slot_gap(reply):
    return reply[:2] + reply[3:]


def _relinked(reply):
    stray = Block.create(slot=reply[2].slot, parent="elsewhere", payload=reply[2].payload)
    return reply[:2] + (stray,) + reply[3:]


@pytest.mark.parametrize(
    "damage",
    [_not_a_block, _text_slot, _tampered_digest, _tampered_payload, _slot_gap, _relinked],
)
def test_transfer_reply_damaged_mid_way_yields_its_valid_prefix(damage):
    chain = make_chain(8)
    reply = damage(tuple(chain[3:]))
    assert linked_run(reply, 3, chain[2].digest) == tuple(chain[3:5])
