"""Transaction mempool: the pending FIFO.

The liveness property of multi-shot consensus (Definition 2) is stated
over transactions: anything a well-behaved node receives must
eventually appear in every finalized chain.  The mempool is the queue
between clients and block proposers: FIFO with deduplication and batch
extraction for payloads.  It holds pending transactions only.  Which
txids have executed is the state machine's ledger
(:class:`~repro.smr.kvstore.KVStore`), handed in at construction: a
submission it holds is refused, and the executor's caller drops each
block's executed txids from the queue (:meth:`Mempool.drop`) so
re-proposals stop.

The pool does not track which transactions ride unfinalized blocks: a
proposer names them per proposal (``exclude``, one lineage walk —
:func:`~repro.smr.replica.txids_in_flight`), so a transaction whose
block was aborted is proposable again, in its FIFO position, as soon as
no lineage being extended carries it.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Set
from dataclasses import dataclass


@dataclass(frozen=True)
class Transaction:
    """An opaque client command with a client-chosen unique id."""

    txid: str
    op: object


class Mempool:
    """FIFO pool of unexecuted transactions; :meth:`add` refuses a txid
    in ``executed``, the process's ledger (the replica's store)."""

    def __init__(self, max_batch: int, executed: Container[str]) -> None:
        self.max_batch = max_batch
        self._executed = executed
        # Unexecuted transactions, in submission order.
        self._pending: dict[str, Transaction] = {}

    def add(self, txn: Transaction) -> bool:
        """Queue a transaction; returns False for duplicates/executed."""
        txid = txn.txid
        if txid in self._pending or txid in self._executed:
            return False
        self._pending[txid] = txn
        return True

    def next_batch(self, exclude: Set[str] = frozenset()) -> tuple[Transaction, ...]:
        """Up to ``max_batch`` oldest transactions not in ``exclude``.

        Transactions are not removed here — they stay queued until
        executed and dropped via :meth:`drop`, so a failed block's
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

    def drop(self, txids: Iterable[str]) -> None:
        """Dequeue executed transactions (a txid not queued is ignored)."""
        for txid in txids:
            self._pending.pop(txid, None)

    @property
    def pending_count(self) -> int:
        """Queued-but-unexecuted transactions, in flight included."""
        return len(self._pending)
