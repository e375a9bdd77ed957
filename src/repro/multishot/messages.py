"""Message types of Multi-shot TetraBFT (Section 6).

The good case uses only two message kinds — ``MSProposal`` and
``MSVote`` — which is the headline simplicity win over pipelined IT-HS
(whose sketch sends suggest/proof alongside every vote).  View changes
add per-slot ``MSViewChange`` and, on recovery, per-slot ``MSSuggest``
and ``MSProof`` mirroring the single-shot ones.

One ``⟨vote, slot, view, value⟩`` simultaneously plays four single-shot
roles: vote-1 for ``slot``, vote-2 for ``slot-1``, vote-3 for
``slot-2`` and vote-4 for ``slot-3`` (the values being the
corresponding chain ancestors).  The phase mapping lives in the node,
"preserved in the local memory" as the paper puts it — the wire format
stays two fields and a digest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.messages import EMPTY_VOTE, VoteRecord
from repro.multishot.block import Block, Digest


@dataclass(frozen=True)
class MSProposal:
    """The leader's block for ``(slot, view)`` — also its implicit vote."""

    slot: int
    view: int
    block: Block


@dataclass(frozen=True)
class MSVote:
    """``⟨vote, slot, view, value⟩`` — one vote, four pipelined roles."""

    slot: int
    view: int
    digest: Digest


@dataclass(frozen=True)
class MSViewChange:
    """``⟨view-change, slot, view⟩`` — abort this slot (and its suffix)."""

    slot: int
    view: int


@dataclass(frozen=True)
class MSSuggest:
    """Per-slot vote-2/vote-3 history for the new leader (Rule 1)."""

    slot: int
    view: int
    vote2: VoteRecord = EMPTY_VOTE
    prev_vote2: VoteRecord = EMPTY_VOTE
    vote3: VoteRecord = EMPTY_VOTE


@dataclass(frozen=True)
class MSProof:
    """Per-slot vote-1/vote-4 history broadcast on view entry (Rule 3)."""

    slot: int
    view: int
    vote1: VoteRecord = EMPTY_VOTE
    prev_vote1: VoteRecord = EMPTY_VOTE
    vote4: VoteRecord = EMPTY_VOTE


#: Most logical messages one :class:`VoteBatch` may carry.  One
#: activation emits a handful of broadcasts, so the cap only guards
#: pathological adversarial fan-out: the batcher splits a longer run
#: into several envelopes, and a decoded envelope over the cap does not
#: construct, which the wire codec turns into a ``CodecError``.
MAX_BATCH = 32


@dataclass(frozen=True)
class VoteBatch:
    """Aggregated vote frame: one physical envelope, many logical messages.

    The message plane batches all broadcasts a node emits within one
    activation — typically every vote it casts for a Δ, with the
    leader's proposal piggybacked alongside its own implicit vote —
    into a single :class:`VoteBatch`.  Receivers unbatch before
    dispatch, so protocol logic only ever sees the individual messages
    in their original order and the envelope never changes semantics,
    only the frame count.
    """

    messages: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.messages, tuple) or len(self.messages) > MAX_BATCH:
            raise ValueError(f"a VoteBatch carries a tuple of at most {MAX_BATCH} messages")

    def logical_count(self) -> int:
        """Number of protocol messages this envelope carries."""
        return len(self.messages)

    def logical_messages(self) -> tuple:
        return self.messages


MultiShotMessage = MSProposal | MSVote | MSViewChange | MSSuggest | MSProof
