"""``DiskStorage``: the WAL + snapshot pair behind one data directory.

Layout of a replica's data dir::

    <data_dir>/
        wal.log        append-only WalAppend/WalSeal frames (codec format)
        snapshot.bin   one SnapshotImage frame, atomically replaced

Write path: every executed block is appended to the WAL (durable after
the group commit); every ``snapshot_interval`` blocks the full replica
state is snapshotted, a seal is forced into the WAL, and the WAL is
compacted down to the records above the snapshot frontier — steady
-state disk usage is one snapshot plus one interval of log.

Recovery path (:meth:`DiskStorage.recover`): load the latest *valid*
snapshot (an invalid one degrades to none), then extend its chain with
every intact, hash-linking ``WalAppend`` above the frontier, stopping
at the first torn or non-linking record.  The result is the longest
locally provable finalized prefix; whatever the crash window lost on
top of it is re-fetched from peers by the replica's catch-up loop.
"""

from __future__ import annotations

from pathlib import Path

from repro.multishot.block import GENESIS_DIGEST, _compute_digest
from repro.net.codec import WalAppend
from repro.storage.api import RecoveredState
from repro.storage.snapshots import (
    SNAPSHOT_NAME,
    load_snapshot,
    snapshot_image,
    write_snapshot,
)
from repro.storage.wal import WriteAheadLog, read_wal

#: WAL file name inside a replica's data dir.
WAL_NAME = "wal.log"


class DiskStorage:
    """Durable :class:`~repro.storage.api.ReplicaStorage` over one dir."""

    def __init__(
        self,
        data_dir: str | Path,
        snapshot_interval: int = 32,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.snapshot_path = self.data_dir / SNAPSHOT_NAME
        self.snapshot_interval = snapshot_interval
        self.wal = WriteAheadLog(self.data_dir / WAL_NAME)
        self._since_snapshot = 0
        self._snapshot_slot = 0
        #: Blocks handed back by the last :meth:`recover` (evidence the
        #: restart replayed local state; reported in CollectReply).
        self.recovered_blocks = 0
        #: Snapshots written (and WAL compactions performed — one per
        #: snapshot) over this storage's lifetime; the snapshot-cadence
        #: signal the obs registry exports.
        self.snapshots_taken = 0
        self.compactions = 0

    # -- recovery -------------------------------------------------------------

    def recover(self) -> RecoveredState | None:
        image = load_snapshot(self.snapshot_path)
        chain = list(image.chain) if image is not None else []
        snapshot_slot = image.tip_slot if image is not None else 0
        records, torn = read_wal(self.wal.path)
        max_seq = 0
        wal_blocks = 0
        for record in records:
            max_seq = max(max_seq, record.seq)
            if not isinstance(record, WalAppend):
                continue  # a seal carries no chain data
            block = record.block
            tip_slot = chain[-1].slot if chain else 0
            if block.slot <= tip_slot:
                continue  # below the frontier: covered by the snapshot
            tip_digest = chain[-1].digest if chain else GENESIS_DIGEST
            if (
                block.slot != tip_slot + 1
                or block.parent != tip_digest
                or _compute_digest(block.slot, block.parent, block.payload) != block.digest
            ):
                # A gap or corrupt body: nothing after it is provable
                # from local state alone.
                torn = True
                break
            chain.append(block)
            wal_blocks += 1
        self.wal.next_seq = max_seq + 1
        self._snapshot_slot = snapshot_slot
        self._since_snapshot = wal_blocks
        if not chain:
            return None
        self.recovered_blocks = len(chain)
        return RecoveredState(
            chain=tuple(chain),
            snapshot_slot=snapshot_slot,
            wal_blocks=wal_blocks,
            state_digest=image.state_digest if image is not None else "",
            torn_tail=torn,
        )

    # -- write path -----------------------------------------------------------

    def block_executed(self, block, replica) -> None:
        self.wal.append_block(block)
        self._since_snapshot += 1
        if self._since_snapshot >= self.snapshot_interval:
            self.take_snapshot(replica)

    def take_snapshot(self, replica) -> None:
        """Snapshot ``replica``'s full state now, then compact the WAL."""
        chain = tuple(replica.finalized_chain)
        if not chain:
            return
        image = snapshot_image(
            chain,
            tuple(replica.store.items()),
            tuple(replica.store.applied_txids),
        )
        write_snapshot(self.snapshot_path, image)
        seal = self.wal.seal(image.tip_slot, image.state_digest)
        self.wal.compact(image.tip_slot, seal)
        self._snapshot_slot = image.tip_slot
        self._since_snapshot = 0
        self.snapshots_taken += 1
        self.compactions += 1

    def flush(self) -> None:
        self.wal.flush()

    def publish_metrics(self, registry) -> None:
        """Write the durability counters into an obs registry.

        ``storage.fsyncs`` / ``storage.wal_bytes`` are the WAL's group
        commits and appended bytes; ``storage.snapshots`` /
        ``storage.compactions`` the snapshot cadence;
        ``storage.since_snapshot`` how deep into the current interval
        the replica is (a live gauge — together with the snapshot
        counter it reconstructs the cadence).
        """
        registry.counter("storage.fsyncs").set(self.wal.flushes)
        registry.counter("storage.wal_records").set(self.wal.records_written)
        registry.counter("storage.wal_bytes").set(self.wal.bytes_written)
        registry.counter("storage.snapshots").set(self.snapshots_taken)
        registry.counter("storage.compactions").set(self.compactions)
        registry.counter("storage.recovered_blocks").set(self.recovered_blocks)
        registry.gauge("storage.since_snapshot").set(self._since_snapshot)
        registry.gauge("storage.snapshot_slot").set(self._snapshot_slot)

    def close(self) -> None:
        self.wal.close()
