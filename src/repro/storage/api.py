"""The ``ReplicaStorage`` seam: what a replica persists, behind a protocol.

A :class:`~repro.smr.replica.Replica` is storage-agnostic: it calls one
narrow hook per executed block and flush/close at shutdown, and asks
``recover()`` once before joining consensus.  What those calls durably
record — nothing (:class:`MemoryStorage`, the default: today's
all-in-memory behavior, exactly) or a write-ahead log of finalized
blocks (:class:`~repro.storage.disk.DiskStorage`) — is the
implementation's business.  The seam mirrors the consensus-engine
boundary in :mod:`repro.smr.engine`: a :class:`typing.Protocol`,
structural, with the replica owning the hooks and the storage owning
every file-format decision.

**Restart fault model, as the code stands.**  ``block_executed`` is the
only write hook, so what survives a restart is finalized blocks and the
state they produce — never a :class:`~repro.core.storage.VoteStorage`.
A replica bootstrapped from ``recover()`` re-enters every slot that was
in flight at view 0 with empty vote records: for those slots it may
vote differently than before the crash and reports no prior votes in
its suggest/proof messages, so it counts against the Byzantine budget.
The protocol's guarantees therefore hold for r restarted plus b
Byzantine replicas with r + b ≤ f — one restart at n=4 (the
kill-and-restart cells) is inside the model, two staggered restarts at
n=4 are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.multishot.block import Block
    from repro.smr.replica import Replica


@dataclass(frozen=True)
class RecoveredState:
    """What ``recover()`` reconstructed from disk.

    ``chain`` is the finalized prefix to bootstrap consensus with (the
    intact, hash-linking WAL records from genesis); ``wal_blocks``
    counts the blocks WAL replay contributed; ``torn_tail`` records
    that the WAL ended in a torn, corrupt or non-linking record that
    replay deliberately stopped at (expected after a crash inside the
    fsync window — the lost tail is re-fetched from peers).
    """

    chain: tuple
    wal_blocks: int
    torn_tail: bool = False


@runtime_checkable
class ReplicaStorage(Protocol):
    """Structural interface of a replica's durability layer."""

    def recover(self) -> RecoveredState | None:
        """Reconstruct persisted state, or ``None`` when there is none.

        Called once, before the replica starts consensus; the caller
        bootstraps its engine from the returned chain.
        """

    def block_executed(self, block: "Block", replica: "Replica") -> None:
        """One finalized block was just executed, in chain order.

        Called after the block's transactions are applied, so
        ``replica.store`` reflects the state *including* this block.
        Not called for blocks replayed during recovery bootstrap.
        """

    def flush(self) -> None:
        """Force every buffered record durable now."""

    def close(self) -> None:
        """Flush and release file handles; the storage is done."""


class MemoryStorage:
    """The default: persist nothing, recover nothing.

    Every hook is a no-op, so a replica built without a data dir runs
    byte-identically to the pre-storage code path.
    """

    def recover(self) -> RecoveredState | None:
        return None

    def block_executed(self, block: "Block", replica: "Replica") -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass
