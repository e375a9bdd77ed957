"""Transaction mempool.

The liveness property of multi-shot consensus (Definition 2) is stated
over transactions: anything a well-behaved node receives must
eventually appear in every finalized chain.  The mempool is the queue
between clients and block proposers: FIFO with deduplication, batch
extraction for payloads, and acknowledgement of finalized transactions
so re-proposals stop.

The pool does not track which transactions ride unfinalized blocks: a
proposer names them per proposal (``exclude``, one lineage walk —
:func:`~repro.smr.replica.txids_in_flight`), so a transaction whose
block was aborted is proposable again, in its FIFO position, as soon as
no lineage being extended carries it.
"""

from __future__ import annotations

from collections.abc import Iterable, Set
from dataclasses import dataclass


@dataclass(frozen=True)
class Transaction:
    """An opaque client command with a client-chosen unique id."""

    txid: str
    op: object

    def wire_size(self) -> int:
        return len(self.txid) + len(repr(self.op))


class Mempool:
    """FIFO pool of unfinalized transactions with a finalization ledger."""

    def __init__(self, max_batch: int = 100) -> None:
        self.max_batch = max_batch
        # Unfinalized transactions, in submission order.
        self._pending: dict[str, Transaction] = {}
        # The dedup ledger: every txid ever finalized, kept forever *by
        # design* — it is what stops a finalized transaction from being
        # resubmitted by a client or re-executed from a duplicate block,
        # so it must cover the whole history, not a window.  It grows
        # with the chain (one string per committed transaction), like
        # the chain itself.
        self._finalized: set[str] = set()

    def add(self, txn: Transaction) -> bool:
        """Queue a transaction; returns False for duplicates/finalized."""
        txid = txn.txid
        if txid in self._pending or txid in self._finalized:
            return False
        self._pending[txid] = txn
        return True

    def next_batch(self, exclude: Set[str] = frozenset()) -> tuple[Transaction, ...]:
        """Up to ``max_batch`` oldest transactions not in ``exclude``.

        Transactions are not removed here — they stay queued until
        acknowledged via :meth:`finalize`, so a failed block's
        payload is re-proposed by a later leader.  ``exclude`` names
        transactions already included in the unfinalized chain the
        proposer is extending (they are in flight, not failed).
        """
        batch: list[Transaction] = []
        for txid, txn in self._pending.items():
            if txid in exclude:
                continue
            batch.append(txn)
            if len(batch) >= self.max_batch:
                break
        return tuple(batch)

    def finalize(self, txid: str) -> bool:
        """Mark ``txid`` finalized; False if it already was, so that a
        duplicate, in an earlier block or the same one, is not executed
        again."""
        finalized = self._finalized
        if txid in finalized:
            return False
        finalized.add(txid)
        self._pending.pop(txid, None)
        return True

    def mark_finalized(self, txids: Iterable[str]) -> None:
        for txid in txids:
            self.finalize(txid)

    @property
    def pending_count(self) -> int:
        """Queued-but-unfinalized transactions, in flight included."""
        return len(self._pending)

    def is_finalized(self, txid: str) -> bool:
        return txid in self._finalized
