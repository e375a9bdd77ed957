"""Blocks and hash-pointer chains for Multi-shot TetraBFT (Section 6).

Blocks carry a slot number and a pointer to their parent, "linked
sequentially via hash pointers, collectively forming a chain" (§2).
The digest, with no signatures a block's only name, is the SHA-256 hex
of the codec's bytes for (slot, parent digest, payload), those between
a block's header and its digest field in every frame and WAL record; a
decoded block hashes the bytes it arrived in (:meth:`Block.from_span`).
:class:`Block` alone computes it and refuses a digest that disagrees
with the contents.  Voting, execution, WAL recovery, :func:`linked_run`
and the gateway's f+1 rule rely on it: 256 bits over a canonical
encoding leave a SHA-256 collision (~2^128 hashes) as the only way to
name two blocks alike, and any op a socket delivers has a digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

Digest = str

#: The digest every chain starts from (slot 0 is the implicit genesis).
GENESIS_DIGEST: Digest = "genesis"


def content_digest(values: tuple) -> Digest:
    """SHA-256 hex of the wire codec's encoding of ``values``' items."""
    from repro.net.codec import WIRE_CODEC  # its registry imports this module

    buf = bytearray()
    WIRE_CODEC._encode_items(values, buf)
    return hashlib.sha256(buf).hexdigest()


@dataclass(frozen=True)
class Block:
    """One block: ``slot``, parent hash pointer, and transaction payload.

    A supplied ``digest`` that disagrees with them raises ``ValueError``."""

    slot: int
    parent: Digest
    payload: object
    digest: Digest = field(default="")

    def __post_init__(self) -> None:
        digest = content_digest((self.slot, self.parent, self.payload))
        if self.digest and self.digest != digest:
            raise ValueError(
                f"block digest {self.digest!r} does not match its contents ({digest!r})"
            )
        object.__setattr__(self, "digest", digest)

    @classmethod
    def create(cls, slot: int, parent: Digest, payload: object) -> "Block":
        return cls(slot=slot, parent=parent, payload=payload)

    @classmethod
    def from_span(cls, span: bytes, slot, parent, payload, digest) -> "Block":
        """A decoded block; ``span`` holds the bytes its other fields came from."""
        if digest != hashlib.sha256(span).hexdigest():
            raise ValueError(f"block digest {digest!r} does not match its contents")
        # Field by field, as the dataclass __init__ does: touching
        # __dict__ would give each block a dict of its own, twice the size.
        block = object.__new__(cls)
        object.__setattr__(block, "slot", slot)
        object.__setattr__(block, "parent", parent)
        object.__setattr__(block, "payload", payload)
        object.__setattr__(block, "digest", digest)
        return block


def linked_run(blocks, height: int, tip: Digest) -> tuple[Block, ...]:
    """The blocks that extend ``tip`` at ``height``: skip the leading
    blocks at or below ``height``, then the longest run of consecutive
    slots, each block the parent of the next, starting from ``tip``.
    Anything not a :class:`Block` with an int slot ends the run."""
    run: list[Block] = []
    parent = tip
    for block in blocks:
        if not isinstance(block, Block) or not isinstance(block.slot, int):
            break
        if not run and block.slot <= height:
            continue
        if block.slot != height + 1 + len(run) or block.parent != parent:
            break
        run.append(block)
        parent = block.digest
    return tuple(run)


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
