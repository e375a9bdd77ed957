"""SMR replica: a pluggable consensus engine + mempool + execution.

This is the deployment shape the paper's introduction motivates: a
quasi-permissionless blockchain node.  A :class:`Replica` wraps a
:class:`~repro.smr.engine.ConsensusEngine` — by default the pipelined
Multi-shot TetraBFT reference engine, or any
:data:`~repro.smr.engine.EngineFactory` (e.g. the Table 1 baselines as
:class:`~repro.baselines.chained.ChainedEngine`) so the comparison
protocols run the identical client path.  When this replica leads a
slot it proposes a batch from its mempool, and every finalized block
executes, in chain order, through the local
:class:`~repro.smr.kvstore.KVStore`'s ``apply_block``: the replica's
one executor and one txid ledger.  The mempool refuses a submission
that ledger holds, and each block's executed txids leave the mempool.

Clients inject transactions with :meth:`submit`; in a simulation,
spread the same transactions to at least one well-behaved replica and
Definition 2's liveness says they eventually execute everywhere.
Submissions may land before the simulation starts; their submit
timestamps are recorded at the replica's first tick (the earliest
instant it could have seen them), not at a fictitious ``t=0``.

Proposal-time duplicate avoidance is one rule: the proposer excludes
the transactions on the *unfinalized* suffix of the lineage it extends
(:func:`txids_in_flight`, a parent-pointer walk through the engine's
block store that stops at the finalized frontier, so it is bounded by
the abort window, not the chain length).  Hook a
:class:`~repro.metrics.smr_trackers.SMRTrackers` bundle into the
constructor to record client-observed submit→finalize latency and
commit throughput for the ``smr`` experiment.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence, Set
from operator import attrgetter

from repro.errors import ConfigurationError
from repro.metrics.smr_trackers import SMRTrackers
from repro.multishot.block import GENESIS_DIGEST, Block, BlockStore, Digest
from repro.multishot.node import MultiShotConfig
from repro.quorums.system import NodeId
from repro.smr.engine import ConsensusEngine, EngineFactory, multishot_engine
from repro.sim.runner import NodeContext, SimNode
from repro.smr.kvstore import KVStore
from repro.smr.mempool import Mempool, Transaction
from repro.storage.api import MemoryStorage, ReplicaStorage


#: Slots of finalized history behind the tip whose digests end a
#: lineage walk.  An independent constant: it must stay >= the
#: consensus node's own retention (RETENTION_SLOTS in
#: multishot/node.py, 8) so the frontier outlives every lineage a
#: proposer can still extend; kept at double that for slack.  If a walk
#: ever outruns it anyway, the pruned block store truncates the walk
#: and the proposer merely excludes less — never incorrectly.
FRONTIER_SLOTS = 16


_slot_of = attrgetter("slot")


def finalized_frontier(executed: Sequence[Block]) -> set[Digest]:
    """Digests of the executed blocks at slots >= tip − :data:`FRONTIER_SLOTS`."""
    if not executed:
        return set()
    horizon = executed[-1].slot - FRONTIER_SLOTS
    frontier: set[Digest] = set()
    for block in reversed(executed):
        if block.slot < horizon:
            break
        frontier.add(block.digest)
    return frontier


def txids_in_flight(store: BlockStore, parent: Digest, finalized: Set[Digest]) -> set[str]:
    """Txids on the unfinalized lineage ending at ``parent``.

    This is what a proposer extending ``parent`` must exclude.  The walk
    follows parent pointers until genesis, a digest in ``finalized``
    (those transactions left the mempool at finalization) or a missing
    body: the proposer excludes what it can see, and a partial exclusion
    only lets through a duplicate that execution discards.
    """
    txids: set[str] = set()
    current = parent
    while current != GENESIS_DIGEST and current not in finalized:
        block = store.get(current)
        if block is None:
            break
        if isinstance(block.payload, tuple):
            txids.update(txn.txid for txn in block.payload if isinstance(txn, Transaction))
        current = block.parent
    return txids


class Replica(SimNode):
    """One blockchain replica (consensus + mempool + execution)."""

    def __init__(
        self,
        node_id: NodeId,
        config: MultiShotConfig | None = None,
        max_batch: int = 100,
        trackers: SMRTrackers | None = None,
        engine_factory: EngineFactory | None = None,
        storage: "ReplicaStorage | None" = None,
    ) -> None:
        if engine_factory is None:
            if config is None:
                raise ConfigurationError(
                    "Replica needs a MultiShotConfig (for the default "
                    "TetraBFT engine) or an explicit engine_factory"
                )
            engine_factory = multishot_engine(config)
        if storage is None:
            storage = MemoryStorage()
        self.node_id = node_id
        self.store = KVStore()
        self.mempool = Mempool(max_batch, self.store)
        self.executed_blocks: list[Block] = []
        self.trackers = trackers
        self.storage = storage
        self._restoring = False
        self._ctx: NodeContext | None = None
        self._pre_start_txids: list[str] = []
        self.consensus: ConsensusEngine = engine_factory(
            node_id, self._make_payload, self._execute_block
        )
        # Deliveries go straight to the engine: no frame of ours between.
        self.receive = self.consensus.receive

    # -- SimNode plumbing -----------------------------------------------------

    def start(self, ctx: NodeContext) -> None:
        self._ctx = ctx
        if self._pre_start_txids:
            # Transactions submitted before the run began: their clock
            # starts at the replica's first tick, not at a fictitious
            # t=0 that would silently inflate measured latency.
            for txid in self._pre_start_txids:
                self.trackers.record_submit(txid, ctx.now)
            self._pre_start_txids.clear()
        self.consensus.start(ctx)

    def receive(self, sender: NodeId, message: object) -> None:
        # Shadowed per instance by the engine's own ``receive`` (see
        # ``__init__``); kept as the SimNode surface.
        self.consensus.receive(sender, message)

    # -- client API --------------------------------------------------------------

    def submit(self, txn: Transaction) -> bool:
        """Inject a client transaction into this replica's mempool."""
        accepted = self.mempool.add(txn)
        if accepted and self.trackers is not None:
            if self._ctx is None:
                self._pre_start_txids.append(txn.txid)
            else:
                self.trackers.record_submit(txn.txid, self._ctx.now)
            self.trackers.record_mempool(self.node_id, self.mempool.pending_count)
        return accepted

    @property
    def finalized_chain(self) -> list[Block]:
        return self.consensus.finalized_chain

    def executed_above(self, height: int) -> list[Block]:
        """The executed blocks above ``height``, oldest first.

        ``executed_blocks`` holds the finalized chain's blocks in chain
        order (bootstrap replays them, finalization appends), so this
        is the finalized chain's suffix, found by bisection on slot: a
        state transfer or a follow costs the blocks it sends, and no
        copy of the whole chain.
        """
        start = bisect_right(self.executed_blocks, height, key=_slot_of)
        return self.executed_blocks[start:]

    def state_digest(self) -> str:
        return self.store.state_digest()

    # -- durability / recovery ------------------------------------------------

    def bootstrap(self, blocks: list[Block] | tuple[Block, ...]) -> None:
        """Restore a recovered finalized prefix before joining consensus.

        Installs ``blocks`` (a hash-linked chain from slot 1, e.g. a
        :class:`~repro.storage.api.RecoveredState`'s) into the engine as
        already-finalized history, then re-executes them through the
        normal execution path so the kvstore, its txid ledger and the
        finalized frontier are rebuilt exactly as a live run would have
        built them.  Trackers and the storage hook are suppressed during
        the replay: these blocks were already recorded (and persisted)
        in a previous life.
        """
        if self._ctx is not None:
            raise ConfigurationError("bootstrap must run before the replica starts")
        if not blocks:
            return
        bootstrap_fn = getattr(self.consensus, "bootstrap_finalized", None)
        if bootstrap_fn is None:
            raise ConfigurationError(
                f"engine {type(self.consensus).__name__} does not support "
                "bootstrap from a recovered chain"
            )
        bootstrap_fn(tuple(blocks))
        self._restoring = True
        try:
            for block in blocks:
                self._execute_block(block)
        finally:
            self._restoring = False

    def offer_blocks(self, blocks: list[Block] | tuple[Block, ...]) -> int:
        """Hand validated finalized blocks from a peer to the engine.

        The state-transfer catch-up path: the engine takes the bodies,
        re-checks finalization, and executes whatever newly chains to
        its tip via the normal callbacks (so these blocks *are* acked,
        tracked, and persisted — unlike a :meth:`bootstrap` replay).
        Returns how many slots the finalized tip advanced.
        """
        offer_fn = getattr(self.consensus, "offer_bodies", None)
        if offer_fn is None:
            raise ConfigurationError(
                f"engine {type(self.consensus).__name__} does not support "
                "state-transfer body offers"
            )
        before = len(self.executed_blocks)
        offer_fn(tuple(blocks))
        return len(self.executed_blocks) - before

    # -- consensus callbacks --------------------------------------------------------

    def _make_payload(self, slot: int, parent: str) -> object:
        """Block payload when this replica leads ``slot``: a mempool batch.

        The batch is not removed from the mempool — the block may be
        aborted by a view change, in which case a later leader (or this
        one, in a later slot) re-proposes the transactions.  They leave
        the pool only on finalization.  Transactions already included
        on the unfinalized lineage we extend are skipped: they are in
        flight, and re-including them would waste the block on
        duplicates the executor must then discard.
        """
        del slot
        exclude = txids_in_flight(
            self.consensus.store, parent, finalized_frontier(self.executed_blocks)
        )
        batch = self.mempool.next_batch(exclude=exclude)
        if self.trackers is not None and batch:
            now = self._ctx.now if self._ctx is not None else 0.0
            self.trackers.record_proposal(
                self.node_id,
                tuple(txn.txid for txn in batch if isinstance(txn, Transaction)),
                now,
            )
        return batch

    def _execute_block(self, block: Block) -> None:
        """Apply one finalized block in chain order."""
        self.executed_blocks.append(block)
        applied_ids = self.store.apply_block(block)
        self.mempool.drop(applied_ids)
        if self._restoring:
            return  # recovery replay: already persisted and tracked
        # A synthetic payload from a non-SMR proposer is no transaction
        # batch, so the trackers skip it; but the block is chain history
        # and is logged durably all the same, or recovery would find a gap.
        self.storage.block_executed(block, self)
        if self.trackers is not None and isinstance(block.payload, tuple):
            now = self._ctx.now if self._ctx is not None else 0.0
            self.trackers.record_block(
                self.node_id,
                block.slot,
                len(applied_ids),
                self.mempool.pending_count,
                now,
            )
            for txid in applied_ids:
                self.trackers.record_commit(self.node_id, txid, now)
