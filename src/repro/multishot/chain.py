"""Notarization and finalization bookkeeping (paper Section 6.1).

    "A block is notarized on receiving votes from a quorum of nodes.
    The first block in a chain of four notarized blocks with
    consecutive slot numbers is finalized, as well as its entire
    prefix in the chain."

:class:`ChainState` tracks which (slot, digest) pairs are notarized and
derives the finalized chain.  Finalization is *chain-linked*: the four
consecutive notarized blocks must actually extend one another (their
views need not match — Fig. 3 finalizes slot 1 of view 1 through slot 4
of view 0), which is what makes a vote for a block an implicit
endorsement of its ancestors.

The bookkeeping is incremental so the per-vote cost stays flat as the
chain grows:

* a **finalized-slot index** (slot → digest) answers "is this slot's
  finalized digest d?" in O(1) instead of scanning the finalized list;
* a **notarization frontier** bounds the finalization scan: only runs
  whose top slot lies in ``[finalized_height + FINALITY_WINDOW - 1,
  max notarized slot]`` can change anything, so each
  :meth:`check_finalization` walks that window instead of re-sorting
  every notarized slot ever seen;
* finalizing appends the new *suffix* to the finalized list instead of
  rebuilding the whole chain from genesis on every finalization;
* the run that finalized the tip is not walked again: its top sits at
  the lowest frontier slot, and retrying it walks back down to the tip
  and appends nothing.  Other digests at that slot still reach the
  fork check.
"""

from __future__ import annotations

from repro.errors import ProtocolViolation
from repro.multishot.block import GENESIS_DIGEST, Block, BlockStore, Digest, linked_run

#: Blocks needed in a notarized run before the first one finalizes.
FINALITY_WINDOW = 4


class ChainState:
    """Per-node notarization ledger and finalized-chain tracker."""

    def __init__(self, store: BlockStore) -> None:
        self.store = store
        self._notarized: dict[int, set[Digest]] = {}
        self.finalized: list[Block] = []
        # Finalized-slot index: slot → digest of the finalized block.
        self._finalized_at: dict[int, Digest] = {}
        # Notarization frontier bound: the highest slot ever notarized.
        self._max_notarized = 0
        # Top digest of the run that finalized the tip (None after a
        # bootstrap): that run's bottom is the tip, so it cannot change
        # anything while the tip stands and the scan skips it.
        self._tip_run_top: Digest | None = None

    # -- notarization ------------------------------------------------------------

    def notarize(self, slot: int, digest: Digest) -> list[Block]:
        """Record a notarization; return any *newly* finalized blocks."""
        self._notarized.setdefault(slot, set()).add(digest)
        if slot > self._max_notarized:
            self._max_notarized = slot
        return self.check_finalization()

    def is_notarized(self, slot: int, digest: Digest) -> bool:
        if slot <= 0:
            return digest == GENESIS_DIGEST or self._finalized_at.get(slot) == digest
        if digest in self._notarized.get(slot, ()):
            return True
        # Finalized blocks are a fortiori notarized.
        return self._finalized_at.get(slot) == digest

    def notarized_digests(self, slot: int) -> set[Digest]:
        return set(self._notarized.get(slot, set()))

    @property
    def max_notarized_slot(self) -> int:
        """The highest slot ever notarized (or installed finalized by
        :meth:`bootstrap`): every run :meth:`check_finalization` can
        complete lies at or below it."""
        return self._max_notarized

    @property
    def finalized_height(self) -> int:
        return self.finalized[-1].slot if self.finalized else 0

    def finalized_digest_at(self, slot: int) -> Digest | None:
        """Digest finalized at ``slot``, or ``None`` (O(1) index hit)."""
        return self._finalized_at.get(slot)

    def bootstrap(self, blocks: tuple[Block, ...] | list[Block]) -> None:
        """Install an already-finalized prefix (recovery from storage).

        ``blocks`` must be the :func:`linked_run` from genesis, whole —
        recovery built it that way from disk, and this re-checks it
        because a malformed bootstrap would poison every later fork
        check.  Only an empty (fresh) chain may be bootstrapped: this
        rebuilds history, it does not merge it.
        """
        if self.finalized or self._notarized:
            raise ProtocolViolation("bootstrap on a non-empty chain state")
        run = linked_run(blocks, 0, GENESIS_DIGEST)
        if len(run) != len(blocks):
            raise ProtocolViolation(
                f"bootstrap chain broken after slot {len(run)}: "
                "not a hash-linked chain from genesis"
            )
        self.finalized = list(blocks)
        for block in blocks:
            self._finalized_at[block.slot] = block.digest
        if self.finalized_height > self._max_notarized:
            self._max_notarized = self.finalized_height

    def prune_below(self, slot: int) -> None:
        """Drop notarization sets for slots below ``slot``.

        Called by the node alongside its per-slot state pruning: slots
        that far behind the finalized tip answer notarization queries
        from the finalized-slot index alone (their non-finalized
        notarized digests are dead lineages that can never finalize —
        any run through them would fork the finalized prefix and the
        fork check fires long before the pruning horizon).
        """
        stale = [s for s in self._notarized if s < slot]
        for s in stale:
            del self._notarized[s]

    # -- finalization ------------------------------------------------------------

    def check_finalization(self) -> list[Block]:
        """Scan the frontier for 4 consecutive chain-linked notarized slots.

        Called after every notarization and after every late block-body
        arrival (a notarized digest whose ancestors' bodies were missing
        cannot finalize until the bodies show up).  Only top slots from
        ``finalized_height + FINALITY_WINDOW - 1`` (the lowest run that
        can still finalize a new block — or re-finalize the tip slot,
        which is how conflicting runs reach the fork check) up to the
        highest notarized slot are candidates, so the scan is O(window)
        in steady state rather than O(chain).  Returns the blocks
        appended to the finalized chain, oldest first.
        """
        newly: list[Block] = []
        progress = True
        while progress:
            progress = False
            frontier = self.finalized_height + FINALITY_WINDOW - 1
            for top_slot in range(frontier, self._max_notarized + 1):
                digests = self._notarized.get(top_slot)
                if not digests:
                    continue
                for top_digest in digests:
                    if top_slot == frontier and top_digest == self._tip_run_top:
                        continue
                    appended = self._try_finalize_run(top_slot, top_digest)
                    if appended:
                        self._tip_run_top = top_digest
                        newly.extend(appended)
                        progress = True
                        break
                if progress:
                    break
        return newly

    def _try_finalize_run(self, top_slot: int, top_digest: Digest) -> list[Block]:
        """Finalize the block 3 generations under ``top`` if the run holds."""
        current = top_digest
        for depth in range(FINALITY_WINDOW - 1):
            block = self.store.get(current)
            if block is None:
                return []  # body missing; retry when it arrives
            parent_slot = top_slot - depth - 1
            if parent_slot <= 0:
                if block.parent != GENESIS_DIGEST:
                    return []
                # A run reaching genesis: fewer than 4 real blocks exist,
                # so nothing below the window can finalize yet.
                return []
            if not self.is_notarized(parent_slot, block.parent):
                return []
            current = block.parent
        return self._finalize_chain_to(current)

    def _finalize_chain_to(self, digest: Digest) -> list[Block]:
        """Append the chain suffix ending at ``digest`` to the finalized list.

        The walk follows parent pointers only until it meets the current
        finalized tip (or genesis), so finalizing one more block costs
        O(new suffix), not O(chain).  Meeting the tip digest proves the
        whole prefix matches — digests are content hashes over the
        parent pointer, so equal tip digests imply equal ancestries.  A
        walk that reaches genesis *without* passing through the tip is
        either a stale shorter run (ignored) or a protocol-level fork
        (raised), distinguished by a full prefix comparison.
        """
        tip_digest = self.finalized[-1].digest if self.finalized else GENESIS_DIGEST
        suffix: list[Block] = []
        current = digest
        while current != tip_digest and current != GENESIS_DIGEST:
            block = self.store.get(current)
            if block is None:
                return []
            suffix.append(block)
            current = block.parent
        if current != tip_digest:
            # Reached genesis on a chain that does not extend the tip.
            return self._check_conflicting_chain(digest)
        suffix.reverse()
        if suffix and suffix[-1].slot <= self.finalized_height:
            return []
        self.finalized.extend(suffix)
        for block in suffix:
            self._finalized_at[block.slot] = block.digest
        return suffix

    def _check_conflicting_chain(self, digest: Digest) -> list[Block]:
        """Fork check for a finalizable chain that bypasses the tip.

        Any finalizable chain must agree with what we already finalized,
        even one that does not extend it — a conflicting run at
        already-final slots is a protocol-level fork and must never be
        silently ignored.  A consistent-but-shorter chain (a stale run
        entirely inside the finalized prefix) finalizes nothing.
        """
        chain = self.store.chain_to_genesis(digest)
        if chain is None:
            return []
        for old, new in zip(self.finalized, chain):
            if old.digest != new.digest:
                raise ProtocolViolation(
                    f"finalized-chain fork at slot {old.slot}: "
                    f"{old.digest} vs {new.digest}"
                )
        return []
