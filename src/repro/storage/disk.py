"""``DiskStorage``: the write-ahead log behind one data directory.

Layout of a replica's data dir::

    <data_dir>/
        wal.log        append-only WalAppend frames (codec format)

Write path: every executed block is appended to the WAL (durable after
the group commit).  That is the only write: one record per block,
whatever the chain's height.

Recovery path (:meth:`DiskStorage.recover`): replay the WAL from
genesis, keeping every intact record whose block is the next slot,
names the previous block as parent, and hashes to its own digest, and
stop at the first torn or non-linking record.  The result is the
longest locally provable finalized prefix; the log is then cut back to
the last record kept, so later appends extend exactly that prefix.
Whatever the crash window lost on top of it is re-fetched from peers by
the replica's catch-up loop.
"""

from __future__ import annotations

from pathlib import Path

from repro.multishot.block import GENESIS_DIGEST, _compute_digest
from repro.storage.api import RecoveredState
from repro.storage.wal import WriteAheadLog, scan_wal

#: WAL file name inside a replica's data dir.
WAL_NAME = "wal.log"


class DiskStorage:
    """Durable :class:`~repro.storage.api.ReplicaStorage` over one dir."""

    def __init__(self, data_dir: str | Path) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.wal = WriteAheadLog(self.data_dir / WAL_NAME)
        #: Blocks handed back by the last :meth:`recover` (evidence the
        #: restart replayed local state; reported in CollectReply).
        self.recovered_blocks = 0

    # -- recovery -------------------------------------------------------------

    def recover(self) -> RecoveredState | None:
        data = self.wal.path.read_bytes()
        chain: list = []
        kept = 0  # bytes of the log that hold ``chain``
        last_seq = 0
        for record, end in scan_wal(data):
            block = record.block
            parent = chain[-1].digest if chain else GENESIS_DIGEST
            if (
                block.slot != len(chain) + 1
                or block.parent != parent
                or _compute_digest(block.slot, block.parent, block.payload) != block.digest
            ):
                # A gap or corrupt body: nothing after it is provable
                # from local state alone.
                break
            chain.append(block)
            kept = end
            last_seq = record.seq
        torn = kept < len(data)
        if torn:
            self.wal.truncate(kept)
        self.wal.next_seq = last_seq + 1
        if not chain:
            return None
        self.recovered_blocks = len(chain)
        return RecoveredState(chain=tuple(chain), wal_blocks=len(chain), torn_tail=torn)

    # -- write path -----------------------------------------------------------

    def block_executed(self, block, replica) -> None:
        self.wal.append_block(block)

    def flush(self) -> None:
        self.wal.flush()

    def publish_metrics(self, registry) -> None:
        """Write the durability counters into an obs registry.

        ``storage.fsyncs`` / ``storage.wal_records`` /
        ``storage.wal_bytes`` are the WAL's group commits, records and
        appended bytes; ``storage.recovered_blocks`` what the last
        :meth:`recover` handed back.
        """
        registry.counter("storage.fsyncs").set(self.wal.flushes)
        registry.counter("storage.wal_records").set(self.wal.records_written)
        registry.counter("storage.wal_bytes").set(self.wal.bytes_written)
        registry.counter("storage.recovered_blocks").set(self.recovered_blocks)

    def close(self) -> None:
        self.wal.close()
