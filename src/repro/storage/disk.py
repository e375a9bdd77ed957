"""``DiskStorage``: the write-ahead log behind one data directory.

Layout of a replica's data dir::

    <data_dir>/
        wal.log        append-only WalAppend frames (codec format)

Write path: every executed block is appended to the WAL (durable after
the group commit).  That is the only write: one record per block,
whatever the chain's height.

Recovery path (:meth:`DiskStorage.recover`): replay the WAL from
genesis and keep the :func:`~repro.multishot.block.linked_run` of its
intact records (a body that does not hash to its digest does not
decode).  That is the longest locally provable finalized prefix; the
log is then cut back to it, the cut bytes kept in ``wal.cut.<offset>``,
so later appends extend exactly that prefix.  Whatever the crash
window lost on top of it is re-fetched from peers by catch-up.
"""

from __future__ import annotations

from pathlib import Path

from repro.multishot.block import GENESIS_DIGEST, linked_run
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
        #: Where the last :meth:`recover` cut the log and how many bytes
        #: it moved aside to ``wal.cut.<offset>`` (0: it cut nothing).
        self.cut_offset = 0
        self.cut_bytes = 0

    # -- recovery -------------------------------------------------------------

    def recover(self) -> RecoveredState | None:
        data = self.wal.path.read_bytes()
        records = list(scan_wal(data))
        chain = linked_run([record.block for record, _ in records], 0, GENESIS_DIGEST)
        kept = last_seq = 0  # where the record holding ``chain[-1]`` ends, its seq
        for record, end in records:
            if chain and record.block is chain[-1]:
                kept, last_seq = end, record.seq
                break
        torn = kept < len(data)
        if torn:
            self.cut_offset = kept
            self.cut_bytes = self.wal.truncate(kept)
        self.wal.next_seq = last_seq + 1
        if not chain:
            return None
        self.recovered_blocks = len(chain)
        return RecoveredState(chain=chain, wal_blocks=len(chain), torn_tail=torn)

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
        :meth:`recover` handed back and ``storage.cut_bytes`` what it cut.
        """
        registry.counter("storage.fsyncs").set(self.wal.flushes)
        registry.counter("storage.wal_records").set(self.wal.records_written)
        registry.counter("storage.wal_bytes").set(self.wal.bytes_written)
        registry.counter("storage.recovered_blocks").set(self.recovered_blocks)
        registry.counter("storage.cut_bytes").set(self.cut_bytes)

    def close(self) -> None:
        self.wal.close()
