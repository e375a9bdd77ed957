"""Blocks and hash-pointer chains for Multi-shot TetraBFT (Section 6).

Blocks carry a slot number and a pointer to their parent, "linked
sequentially via hash pointers, collectively forming a chain" (§2).
The digest is a content hash over (slot, parent digest, payload); it is
*not* a cryptographic commitment — the protocol model is
unauthenticated and nothing relies on collision resistance — it is the
chain-linking identifier the paper's chain structure needs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

Digest = str

#: The digest every chain starts from (slot 0 is the implicit genesis).
GENESIS_DIGEST: Digest = "genesis"
GENESIS_SLOT = 0


def _compute_digest(slot: int, parent: Digest, payload: object) -> Digest:
    material = f"{slot}|{parent}|{payload!r}".encode()
    return hashlib.sha256(material).hexdigest()[:16]


@dataclass(frozen=True)
class Block:
    """One block: ``slot``, parent hash pointer, and transaction payload."""

    slot: int
    parent: Digest
    payload: object
    digest: Digest = field(default="")

    def __post_init__(self) -> None:
        if not self.digest:
            object.__setattr__(
                self, "digest", _compute_digest(self.slot, self.parent, self.payload)
            )

    @classmethod
    def create(cls, slot: int, parent: Digest, payload: object) -> "Block":
        return cls(slot=slot, parent=parent, payload=payload)

    def wire_size(self) -> int:
        """Slot + two digests + a payload reference (constant here; the
        SMR layer's payloads dominate in practice)."""
        payload_size = len(repr(self.payload))
        return 8 + 2 * 16 + payload_size


class BlockStore:
    """Blocks a node has seen, indexed by digest, with ancestry queries.

    Bounded in practice by the finalization window plus the finalized
    chain; :meth:`prune_below` lets the node discard block bodies for
    slots below the active window once their chain is finalized.

    A slot index (slot → digests first added at that slot) covers the
    bodies no prune call has visited yet, so pruning costs the slots
    crossing the horizon, not the chain: a body that survives its one
    visit (a finalized block) stays addressable by digest and leaves
    the index.
    """

    def __init__(self) -> None:
        self._by_digest: dict[Digest, Block] = {}
        self._by_slot: dict[int, list[Digest]] = {}

    def add(self, block: Block) -> None:
        if block.digest not in self._by_digest:
            self._by_slot.setdefault(block.slot, []).append(block.digest)
        self._by_digest[block.digest] = block

    def get(self, digest: Digest) -> Block | None:
        return self._by_digest.get(digest)

    def __contains__(self, digest: Digest) -> bool:
        return digest in self._by_digest

    def __len__(self) -> int:
        return len(self._by_digest)

    def ancestor_digest(self, digest: Digest, generations: int) -> Digest | None:
        """Digest of the ``generations``-th ancestor of ``digest``.

        Returns ``GENESIS_DIGEST`` when walking past the chain start and
        ``None`` when an intermediate block body is unknown (the caller
        then cannot interpret the vote yet and must wait).
        """
        current = digest
        for _ in range(generations):
            if current == GENESIS_DIGEST:
                return GENESIS_DIGEST
            block = self._by_digest.get(current)
            if block is None:
                return None
            current = block.parent
        return current

    def chain_to_genesis(self, digest: Digest) -> list[Block] | None:
        """The block chain ending at ``digest``, oldest first.

        ``None`` when some ancestor body is missing.
        """
        chain: list[Block] = []
        current = digest
        while current != GENESIS_DIGEST:
            block = self._by_digest.get(current)
            if block is None:
                return None
            chain.append(block)
            current = block.parent
        chain.reverse()
        return chain

    def slots_below(self, slot: int) -> list[int]:
        """Indexed slots below ``slot``: what ``prune_below(slot, ...)`` visits."""
        return [s for s in self._by_slot if s < slot]

    def prune_below(self, slot: int, keep: set[Digest]) -> None:
        """Drop block bodies for slots below ``slot`` except ``keep``.

        Each body is visited by exactly one call, so ``keep`` need only
        name the survivors among :meth:`slots_below`, and a body kept
        once is kept for good.
        """
        for stale in self.slots_below(slot):
            for digest in self._by_slot.pop(stale):
                if digest not in keep:
                    del self._by_digest[digest]
