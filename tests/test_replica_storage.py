"""Durability-layer contract tests: WAL, snapshots, recovery edges.

The recovery invariant under test everywhere here: whatever the crash
did to the files, ``recover()`` returns the longest locally *provable*
finalized prefix — never a corrupt block, never a gapped chain, and a
bad snapshot is exactly as good as no snapshot.  Torn tails are
expected (a crash inside the fsync window), so they are flagged, not
fatal.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core import ProtocolConfig
from repro.errors import ProtocolViolation
from repro.multishot import MultiShotConfig
from repro.multishot.block import GENESIS_DIGEST, Block
from repro.net.codec import WIRE_CODEC, SnapshotImage, WalAppend, WalSeal
from repro.net.replica_main import ReplicaProcess
from repro.smr.kvstore import KVStore
from repro.smr.mempool import Transaction
from repro.smr.replica import Replica
from repro.storage import (
    DiskStorage,
    MemoryStorage,
    WriteAheadLog,
    load_snapshot,
    read_wal,
    snapshot_image,
    state_digest_of,
    validate_snapshot,
    write_snapshot,
)
from repro.storage.wal import WAL_RECORD_CAP


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


def stub_replica():
    """The slice of Replica the storage hooks consume: a finalized
    chain plus an executed-state store."""
    return SimpleNamespace(finalized_chain=[], store=KVStore())


def execute(stub, storage, block: Block) -> None:
    """Drive one block through the stub the way Replica does: apply
    transactions first, then hand the block to storage."""
    for txn in block.payload:
        stub.store.apply(txn.txid, txn.op)
    stub.finalized_chain.append(block)
    storage.block_executed(block, stub)


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


def test_wal_seal_is_immediately_durable(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log")
    wal.seal(upto_slot=7, state_digest="abc")
    records, torn = read_wal(tmp_path / "wal.log")  # no close, no flush call
    assert not torn
    assert isinstance(records[0], WalSeal)
    assert records[0].upto_slot == 7 and records[0].state_digest == "abc"
    wal.close()


def test_wal_compaction_keeps_seal_and_suffix(tmp_path):
    chain = make_chain(10)
    wal = WriteAheadLog(tmp_path / "wal.log")
    for block in chain:
        wal.append_block(block)
    seal = wal.seal(upto_slot=8, state_digest="sd8")
    wal.compact(keep_above_slot=8, seal=seal)
    # Appends still work after the file handle swap.
    extra = Block.create(slot=11, parent=chain[-1].digest, payload=())
    wal.append_block(extra)
    wal.close()
    records, torn = read_wal(tmp_path / "wal.log")
    assert not torn
    assert isinstance(records[0], WalSeal) and records[0].upto_slot == 8
    survivors = [r.block.slot for r in records if isinstance(r, WalAppend)]
    assert survivors == [9, 10, 11]


# -- snapshots ----------------------------------------------------------------


def test_snapshot_round_trip(tmp_path):
    chain = make_chain(6)
    stub = stub_replica()
    for block in chain:
        for txn in block.payload:
            stub.store.apply(txn.txid, txn.op)
    image = snapshot_image(
        tuple(chain), tuple(stub.store.items()), tuple(stub.store.applied_txids)
    )
    assert image.state_digest == stub.store.state_digest()
    path = tmp_path / "snapshot.bin"
    write_snapshot(path, image)
    loaded = load_snapshot(path)
    assert loaded == image


def test_snapshot_missing_or_short_file(tmp_path):
    assert load_snapshot(tmp_path / "nope.bin") is None
    (tmp_path / "short.bin").write_bytes(b"\x00\x01")
    assert load_snapshot(tmp_path / "short.bin") is None


def test_snapshot_corrupt_bytes_degrade_to_none(tmp_path):
    chain = make_chain(4)
    image = snapshot_image(tuple(chain), (), ())
    path = tmp_path / "snapshot.bin"
    write_snapshot(path, image)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    assert load_snapshot(path) is None


def test_snapshot_wrong_frame_type_is_rejected(tmp_path):
    path = tmp_path / "snapshot.bin"
    path.write_bytes(WIRE_CODEC.encode_frame(Transaction("tx-1", ("noop",))))
    assert load_snapshot(path) is None


def test_validate_snapshot_rejects_tampering():
    chain = make_chain(4)
    good = snapshot_image(tuple(chain), (("k", 1),), ("tx-0",))
    assert validate_snapshot(good)
    # Wrong tip fields.
    assert not validate_snapshot(
        SnapshotImage(
            tip_slot=99,
            tip_digest=good.tip_digest,
            state_digest=good.state_digest,
            applied_txids=good.applied_txids,
            kv_items=good.kv_items,
            chain=good.chain,
        )
    )
    # Broken linkage: drop a middle block.
    gapped = (chain[0], chain[2], chain[3])
    assert not validate_snapshot(
        SnapshotImage(
            tip_slot=chain[3].slot,
            tip_digest=chain[3].digest,
            state_digest=good.state_digest,
            applied_txids=good.applied_txids,
            kv_items=good.kv_items,
            chain=gapped,
        )
    )
    # Executed state not matching its recorded digest.
    assert not validate_snapshot(
        SnapshotImage(
            tip_slot=good.tip_slot,
            tip_digest=good.tip_digest,
            state_digest=good.state_digest,
            applied_txids=good.applied_txids,
            kv_items=(("k", 2),),
            chain=good.chain,
        )
    )


def test_state_digest_matches_kvstore():
    store = KVStore()
    store.apply("tx-1", ("set", "a", 1))
    store.apply("tx-2", ("incr", "c", 3))
    assert (
        state_digest_of(tuple(store.items()), tuple(store.applied_txids))
        == store.state_digest()
    )


# -- DiskStorage end to end ---------------------------------------------------


def test_disk_storage_recovers_snapshot_plus_wal(tmp_path):
    chain = make_chain(10)
    storage = DiskStorage(tmp_path, snapshot_interval=4)
    stub = stub_replica()
    for block in chain:
        execute(stub, storage, block)
    storage.close()
    # Two snapshots happened (after slots 4 and 8); slots 9..10 live in
    # the compacted WAL only.
    reopened = DiskStorage(tmp_path, snapshot_interval=4)
    recovered = reopened.recover()
    assert recovered is not None
    assert [b.digest for b in recovered.chain] == [b.digest for b in chain]
    assert recovered.snapshot_slot == 8
    assert recovered.wal_blocks == 2
    assert not recovered.torn_tail
    assert reopened.recovered_blocks == 10
    # New appends pick up past the recovered sequence, not over it.
    assert reopened.wal.next_seq > 1
    reopened.close()


def test_disk_storage_recovers_wal_only(tmp_path):
    chain = make_chain(3)
    storage = DiskStorage(tmp_path, snapshot_interval=100)
    stub = stub_replica()
    for block in chain:
        execute(stub, storage, block)
    storage.close()
    recovered = DiskStorage(tmp_path, snapshot_interval=100).recover()
    assert recovered is not None
    assert recovered.snapshot_slot == 0 and recovered.wal_blocks == 3
    assert [b.slot for b in recovered.chain] == [1, 2, 3]


def test_disk_storage_empty_dir_recovers_none(tmp_path):
    assert DiskStorage(tmp_path).recover() is None


def test_disk_storage_torn_wal_tail_recovers_prefix(tmp_path):
    chain = make_chain(6)
    storage = DiskStorage(tmp_path, snapshot_interval=100)
    stub = stub_replica()
    for block in chain:
        execute(stub, storage, block)
    storage.close()
    wal_path = tmp_path / "wal.log"
    data = wal_path.read_bytes()
    wal_path.write_bytes(data[:-5])
    recovered = DiskStorage(tmp_path, snapshot_interval=100).recover()
    assert recovered is not None
    assert recovered.torn_tail
    assert [b.slot for b in recovered.chain] == [1, 2, 3, 4, 5]


def test_disk_storage_wal_gap_stops_recovery(tmp_path):
    """A WAL whose records skip a slot proves nothing past the gap."""
    chain = make_chain(4)
    wal = WriteAheadLog(tmp_path / "wal.log")
    for block in chain[:2] + chain[3:]:  # slot 3 missing
        wal.append_block(block)
    wal.close()
    recovered = DiskStorage(tmp_path).recover()
    assert recovered is not None
    assert recovered.torn_tail
    assert [b.slot for b in recovered.chain] == [1, 2]


def test_disk_storage_corrupt_block_body_stops_recovery(tmp_path):
    chain = make_chain(3)
    bad = Block(
        slot=4, parent=chain[-1].digest, payload=("tampered",), digest="f" * 16
    )
    wal = WriteAheadLog(tmp_path / "wal.log")
    for block in chain:
        wal.append_block(block)
    wal.append_block(bad)
    wal.close()
    recovered = DiskStorage(tmp_path).recover()
    assert recovered is not None
    assert recovered.torn_tail
    assert [b.slot for b in recovered.chain] == [1, 2, 3]


def test_disk_storage_corrupt_snapshot_falls_back_to_wal(tmp_path):
    chain = make_chain(10)
    storage = DiskStorage(tmp_path, snapshot_interval=4)
    stub = stub_replica()
    for block in chain:
        execute(stub, storage, block)
    storage.close()
    snap_path = tmp_path / "snapshot.bin"
    data = bytearray(snap_path.read_bytes())
    data[len(data) // 3] ^= 0xFF
    snap_path.write_bytes(bytes(data))
    # The compacted WAL starts above slot 8; without the snapshot the
    # surviving records (9, 10) cannot link to genesis, so the longest
    # provable prefix is empty — and recovery says so rather than
    # fabricating a gapped chain.
    assert DiskStorage(tmp_path, snapshot_interval=4).recover() is None


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
    # Replayed transactions are deduplicated like any finalized ones.
    assert replica.mempool.is_finalized(chain[0].payload[0].txid)


def test_replica_bootstrap_rejects_broken_chain():
    chain = make_chain(4)
    replica = _replica()
    with pytest.raises(ProtocolViolation):
        replica.bootstrap([chain[0], chain[2], chain[3]])


def test_replica_bootstrap_does_not_repersist(tmp_path):
    """Recovery replay must not re-append recovered blocks to the WAL."""
    chain = make_chain(4)
    storage = DiskStorage(tmp_path, snapshot_interval=100)
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


def test_disk_storage_full_cycle_via_replica(tmp_path):
    """Persist through the real Replica hook path, then recover into a
    fresh Replica and compare digests — the restart cell in miniature.

    Blocks are fed straight to ``_execute_block`` (no engine run), so
    this exercises the WAL leg; the snapshot leg is covered by the
    stub-driven tests above, where ``finalized_chain`` is populated.
    """
    chain = make_chain(7)
    storage = DiskStorage(tmp_path, snapshot_interval=100)
    replica = _replica(storage=storage)
    for block in chain:
        replica._execute_block(block)
    storage.close()

    recovered = DiskStorage(tmp_path, snapshot_interval=100).recover()
    assert recovered is not None
    assert [b.digest for b in recovered.chain] == [b.digest for b in chain]
    twin = _replica(node_id=1)
    twin.bootstrap(recovered.chain)
    assert twin.state_digest() == replica.state_digest()


# -- state-transfer reply validation ------------------------------------------

validate_transfer = ReplicaProcess._validate_transfer


def test_transfer_suffix_extending_the_local_tip_is_accepted_whole():
    chain = make_chain(6)
    assert validate_transfer(tuple(chain[3:]), 3, chain[2].digest) == tuple(chain[3:])
    assert validate_transfer(tuple(chain), 0, GENESIS_DIGEST) == tuple(chain)


def test_transfer_suffix_forking_off_the_local_tip_is_rejected():
    ours, fork = make_chain(6), make_chain(6, txns_per_block=1)
    # Internally well linked and digest-valid, but its first parent is
    # the fork's block 3, not ours.
    assert validate_transfer(tuple(fork[3:]), 3, ours[2].digest) == ()
    # At height 0 the tip is genesis: slot 1 must name it as parent.
    orphan = Block.create(slot=1, parent=ours[0].digest, payload=())
    assert validate_transfer((orphan,), 0, GENESIS_DIGEST) == ()


def _tampered_digest(reply):
    return reply[:2] + (replace(reply[2], digest="f" * 64),) + reply[3:]


def _tampered_payload(reply):
    return reply[:2] + (replace(reply[2], payload=()),) + reply[3:]


def _slot_gap(reply):
    return reply[:2] + reply[3:]


def _relinked(reply):
    stray = Block.create(slot=reply[2].slot, parent="elsewhere", payload=reply[2].payload)
    return reply[:2] + (stray,) + reply[3:]


@pytest.mark.parametrize("damage", [_tampered_digest, _tampered_payload, _slot_gap, _relinked])
def test_transfer_reply_damaged_mid_way_yields_its_valid_prefix(damage):
    chain = make_chain(8)
    reply = damage(tuple(chain[3:]))
    assert validate_transfer(reply, 3, chain[2].digest) == tuple(chain[3:5])
