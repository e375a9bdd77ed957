"""The Multi-shot (pipelined) TetraBFT node (paper Section 6).

One vote message per slot drives four overlapping single-shot
instances: ``⟨vote, slot s, view v, value⟩`` is simultaneously vote-1
for slot ``s``, vote-2 for ``s-1``, vote-3 for ``s-2`` and vote-4 for
``s-3`` (values being the corresponding chain ancestors).  In the good
case the protocol therefore commits one block per message delay using
only two message types — proposals and votes — and the view-change
machinery (Algorithms 2 and 3) exists purely to recover from a faulty
leader or asynchrony.

Protocol flow implemented here:

* **Good case (§6.1).**  The leader of slot ``s`` proposes a block
  extending slot ``s-1``'s the moment it has seen ``b_{s-1}`` with a
  notarized parent; the proposal doubles as the leader's implicit vote.
  A node votes for ``b_s`` once (a) the value is safe in the slot's
  current view (trivially at view 0, Rule 3 otherwise) and (b)
  ``b_{s-1}`` is notarized.  A quorum of votes notarizes; four
  consecutive chain-linked notarized slots finalize the first and its
  prefix (:mod:`repro.multishot.chain`).
* **View change (§6.2).**  Each slot has a 9Δ timer from its start; on
  expiry without finalization the node broadcasts
  ``⟨view-change, slot, v+1⟩``.  f+1 of those are echoed; a quorum
  moves every non-finalized slot ≥ the named slot into the new view,
  resets timers, and broadcasts per-slot suggest/proof messages so the
  new leaders can find safe values (Rules 1–4, unchanged from
  single-shot).  Slots never previously started still begin at view 0,
  exactly as slot 4 does in the paper's Fig. 3.

:class:`MultiShotNode` is also the **reference implementation** of the
SMR layer's :class:`~repro.smr.engine.ConsensusEngine` boundary: it
satisfies the protocol structurally (``start``/``receive``/``store``/
``finalized_chain`` plus the constructor's payload and finalization
hooks), and :func:`repro.smr.engine.multishot_engine` wires it behind a
:class:`~repro.smr.replica.Replica` byte-for-byte as the replica used
to construct it directly.

Documented deviation: when recording the ancestor phases of a vote
into the per-slot :class:`VoteStorage`, a record that would *decrease*
a phase's view (possible only when lineages from different views
interleave, e.g. a view-0 vote whose ancestor slot already progressed
to view 1) is skipped rather than stored.  Claims in suggest/proof
messages remain true statements about our highest votes — under-
reporting can only make Rules 1/3 more conservative, never admit an
unsafe value.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.config import ProtocolConfig
from repro.core.messages import Proof, Suggest
from repro.core.rules import find_safe_value, proposal_is_safe
from repro.core.storage import VoteStorage
from repro.core.values import Phase
from repro.errors import ConfigurationError
from repro.multishot.batching import BatchingContext, batching_enabled
from repro.multishot.block import GENESIS_DIGEST, Block, BlockStore, Digest
from repro.multishot.chain import FINALITY_WINDOW, ChainState
from repro.multishot.messages import (
    MSProof,
    MSProposal,
    MSSuggest,
    MSViewChange,
    MSVote,
    VoteBatch,
)
from repro.quorums.system import NodeId
from repro.sim.events import EventHandle
from repro.sim.runner import NodeContext, SimNode
from repro.sim.trace import TraceKind

#: Payload factory: (slot, parent digest) → block payload.  The parent
#: digest lets SMR proposers skip transactions already in flight on the
#: lineage they extend.
PayloadFn = Callable[[int, Digest], object]
FinalizeCallback = Callable[[Block], None]

#: How many slots of per-slot working state to retain behind the
#: finalized tip.  5 covers the paper's maximum abort window.
RETENTION_SLOTS = 8


def default_payload(slot: int, parent: Digest) -> object:
    del parent
    return f"block-payload-{slot}"


@dataclass(frozen=True)
class MultiShotConfig:
    """Parameters of a Multi-shot TetraBFT deployment.

    ``base`` supplies the quorum system, Δ and timeout; ``max_slots``
    bounds how far leaders extend the chain (simulations are finite —
    the tail ``FINALITY_WINDOW - 1`` blocks of a run can never
    finalize, as in any streamlet-style chain).  The leader of
    ``(slot, view)`` is round-robin over ``slot + view`` so that a
    view change within a slot rotates to a different leader.
    """

    base: ProtocolConfig
    max_slots: int = 20

    def __post_init__(self) -> None:
        if self.max_slots < 1:
            raise ConfigurationError(f"max_slots must be >= 1, got {self.max_slots}")

    def leader_of(self, slot: int, view: int) -> NodeId:
        ids = self.base.node_ids
        return ids[(slot + view) % len(ids)]

    @property
    def quorum_system(self):
        return self.base.quorum_system


@dataclass
class _SlotState:
    """Mutable per-slot bookkeeping (bounded by RETENTION_SLOTS)."""

    view: int = 0
    started: bool = False
    timer: EventHandle | None = None
    voted_views: set[int] = field(default_factory=set)
    proposed_views: set[int] = field(default_factory=set)
    # proposals / votes / proofs / suggests keyed by view.
    proposals: dict[int, MSProposal] = field(default_factory=dict)
    votes: dict[tuple[int, Digest], set[NodeId]] = field(default_factory=dict)
    proofs: dict[int, dict[NodeId, MSProof]] = field(default_factory=dict)
    suggests: dict[int, dict[NodeId, MSSuggest]] = field(default_factory=dict)
    vc_senders: dict[int, set[NodeId]] = field(default_factory=dict)
    vc_sent: int = 0
    storage: VoteStorage = field(default_factory=VoteStorage)
    notarized_by_view: dict[int, Digest] = field(default_factory=dict)


class MultiShotNode(SimNode):
    """A well-behaved Multi-shot TetraBFT participant."""

    def __init__(
        self,
        node_id: NodeId,
        config: MultiShotConfig,
        payload_fn: PayloadFn | None = None,
        on_finalize: FinalizeCallback | None = None,
        batching: bool | None = None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.payload_fn = payload_fn if payload_fn is not None else default_payload
        self.on_finalize = on_finalize
        self.store = BlockStore()
        self.chain = ChainState(self.store)
        self.slots: dict[int, _SlotState] = {}
        self._ctx: NodeContext | None = None
        # None → consult the REPRO_NO_BATCH escape hatch at start().
        self._batching = batching
        self._batch_ctx: BatchingContext | None = None

    # -- helpers -------------------------------------------------------------------

    @property
    def ctx(self) -> NodeContext:
        assert self._ctx is not None, "node used before start()"
        return self._ctx

    @property
    def finalized_chain(self) -> list[Block]:
        return list(self.chain.finalized)

    def slot_state(self, slot: int) -> _SlotState:
        state = self.slots.get(slot)
        if state is None:
            state = _SlotState()
            self.slots[slot] = state
        return state

    def _qs(self):
        return self.config.quorum_system

    # -- lifecycle ------------------------------------------------------------------

    def start(self, ctx: NodeContext) -> None:
        if self._batching is None:
            self._batching = batching_enabled()
        if self._batching:
            self._batch_ctx = BatchingContext(ctx)
            ctx = self._batch_ctx
        self._ctx = ctx
        # A fresh node starts at slot 1; a node bootstrapped from a
        # recovered chain resumes at the first unfinalized slot.
        first = self.chain.finalized_height + 1
        self._start_slot(first)
        self._maybe_propose(first)
        if self._batch_ctx is not None:
            self._batch_ctx.flush()

    def bootstrap_finalized(self, blocks: tuple[Block, ...]) -> None:
        """Install a recovered finalized prefix before :meth:`start`.

        The blocks become chain history (bodies in the store, slots in
        the finalized index) without any votes, notarization messages,
        or finalize callbacks — the caller replays execution itself.
        Must run on a fresh, unstarted node; :meth:`start` then resumes
        consensus at the first unfinalized slot.
        """
        if self._ctx is not None:
            raise ConfigurationError("bootstrap_finalized must run before start()")
        for block in blocks:
            self.store.add(block)
        self.chain.bootstrap(blocks)

    def offer_bodies(self, blocks: tuple[Block, ...]) -> None:
        """Accept finalized block bodies fetched from a peer (catch-up).

        State transfer only supplies *bodies*; finalization is still
        proven by the live notarized run the node hears votes for — a
        gap below that run finalizes in one chain walk the moment every
        body in it is present (see ``ChainState._finalize_chain_to``),
        and each newly finalized block flows through the normal
        ``on_finalize`` callback.
        """
        added = False
        for block in blocks:
            if block.digest not in self.store:
                self.store.add(block)
                added = True
        if added:
            self._after_body_arrival()
            if self._batch_ctx is not None:
                self._batch_ctx.flush()

    def _start_slot(self, slot: int) -> None:
        if slot > self.config.max_slots:
            return
        state = self.slot_state(slot)
        if state.started:
            return
        state.started = True
        self._arm_timer(slot)
        self.ctx.trace(TraceKind.VIEW_ENTER, slot=slot, view=state.view)

    def _arm_timer(self, slot: int) -> None:
        state = self.slot_state(slot)
        if state.timer is not None:
            state.timer.cancel()
        state.timer = self.ctx.set_timer(
            self.config.base.view_timeout, lambda: self._on_timeout(slot)
        )

    def _on_timeout(self, slot: int) -> None:
        if self.chain.finalized_height >= slot:
            return  # finalized while the timer was in flight
        state = self.slot_state(slot)
        if not state.started:
            return
        self.ctx.trace(TraceKind.TIMER, slot=slot, view=state.view)
        next_view = max(state.view + 1, state.vc_sent)
        state.vc_sent = next_view
        self.ctx.broadcast(MSViewChange(slot, next_view))
        self._arm_timer(slot)

    # -- receive dispatch ---------------------------------------------------------------

    def receive(self, sender: NodeId, message: object) -> None:
        if type(message) is VoteBatch:
            for item in message.messages:
                self._dispatch(sender, item)
        else:
            self._dispatch(sender, message)
        if self._batch_ctx is not None:
            self._batch_ctx.flush()

    def _dispatch(self, sender: NodeId, message: object) -> None:
        if isinstance(message, MSProposal):
            self._on_proposal(sender, message)
        elif isinstance(message, MSVote):
            self._on_vote(sender, message)
        elif isinstance(message, MSViewChange):
            self._on_view_change(sender, message)
        elif isinstance(message, MSSuggest):
            self._on_suggest(sender, message)
        elif isinstance(message, MSProof):
            self._on_proof(sender, message)

    # -- proposals ------------------------------------------------------------------------

    def _on_proposal(self, sender: NodeId, message: MSProposal) -> None:
        slot, view, block = message.slot, message.view, message.block
        if slot < 1 or slot > self.config.max_slots:
            return
        if slot <= self.chain.finalized_height:
            # A proposal at or below our finalized tip is stale — a
            # restarted peer resuming from older disk state.  Entertain
            # it (our per-slot vote/proposal history there may already
            # be pruned) and we could help notarize a conflicting
            # lineage under the finalized chain; the rejoiner catches
            # up via state transfer instead.
            return
        if sender != self.config.leader_of(slot, view):
            return
        if block.slot != slot:
            return  # malformed: block claims a different slot
        state = self.slot_state(slot)
        if view not in state.proposals:
            state.proposals[view] = message
            self.store.add(block)
        # A proposal is the leader's implicit vote (§6.1).
        self._register_vote(sender, MSVote(slot, view, block.digest))
        # Receiving the proposal for slot s starts slot s+1 (Alg. 3).
        self._start_slot(slot + 1)
        self._maybe_vote(slot)
        self._maybe_propose(slot + 1)
        self._after_body_arrival()

    def _maybe_propose(self, slot: int) -> None:
        if slot < 1 or slot > self.config.max_slots:
            return
        state = self.slot_state(slot)
        view = state.view
        if self.config.leader_of(slot, view) != self.node_id:
            return
        if view in state.proposed_views:
            return
        parent = self._parent_for(slot, view)
        if parent is None:
            return
        if view == 0:
            block = Block.create(slot, parent, self.payload_fn(slot, parent))
        else:
            block = self._find_safe_block(slot, view, parent)
            if block is None:
                return
        state.proposed_views.add(view)
        self.store.add(block)
        self.ctx.trace(TraceKind.PROPOSE, slot=slot, view=view, value=block.digest)
        self._record_vote_phases(slot, view, block.digest)
        state.voted_views.add(view)
        self.ctx.broadcast(MSProposal(slot, view, block))

    def _parent_for(self, slot: int, view: int) -> Digest | None:
        """The digest the leader of ``(slot, view)`` should extend.

        The previous slot's *notarized* block from its highest view is
        the authoritative parent — once a quorum endorsed it, that is
        the lineage to build on even if the previous slot's current
        leader is faulty.  Failing that, the good-case §6.1 rule
        applies: extend the block proposed for ``slot - 1`` provided
        *its* parent is notarized (the leader's implicit-vote
        conditions).
        """
        del view
        if slot == 1:
            return GENESIS_DIGEST
        prev_state = self.slot_state(slot - 1)
        if prev_state.notarized_by_view:
            best_view = max(prev_state.notarized_by_view)
            return prev_state.notarized_by_view[best_view]
        # A bootstrapped node has no per-slot vote history for its
        # recovered prefix, but the finalized block *is* the notarized
        # parent to extend (fallback only: a live slot's own
        # notarizations always take precedence above).
        finalized = self.chain.finalized_digest_at(slot - 1)
        if finalized is not None:
            return finalized
        prev_proposal = prev_state.proposals.get(prev_state.view)
        if prev_proposal is None:
            return None
        prev_block = prev_proposal.block
        if slot - 2 >= 1 and not self.chain.is_notarized(slot - 2, prev_block.parent):
            return None
        if slot == 2 and prev_block.parent != GENESIS_DIGEST:
            return None
        return prev_block.digest

    def _find_safe_block(self, slot: int, view: int, fresh_parent: Digest) -> Block | None:
        """Rule 1 applied per slot: re-propose a forced value or mint fresh."""
        state = self.slot_state(slot)
        suggests = {
            node: Suggest(view, s.vote2, s.prev_vote2, s.vote3)
            for node, s in state.suggests.get(view, {}).items()
        }
        fresh = Block.create(slot, fresh_parent, self.payload_fn(slot, fresh_parent))
        value = find_safe_value(suggests, view, self._qs(), default_value=fresh.digest)
        if value is None:
            return None
        if value == fresh.digest:
            return fresh
        forced = self.store.get(str(value))
        if forced is None or forced.slot != slot:
            return None  # forced digest whose body we lack: wait
        return forced

    # -- voting --------------------------------------------------------------------------------

    def _maybe_vote(self, slot: int) -> None:
        state = self.slot_state(slot)
        view = state.view
        if view in state.voted_views:
            return
        proposal = state.proposals.get(view)
        if proposal is None:
            return
        block = proposal.block
        # Condition 1 (§6.1): the parent block is notarized.
        if slot >= 2 and not self.chain.is_notarized(slot - 1, block.parent):
            return
        if slot == 1 and block.parent != GENESIS_DIGEST:
            return
        # Condition 2: the value is safe in this slot's view (Rule 3).
        if view > 0:
            proofs = {
                node: Proof(view, p.vote1, p.prev_vote1, p.vote4)
                for node, p in state.proofs.get(view, {}).items()
            }
            if not proposal_is_safe(proofs, view, block.digest, self._qs()):
                return
        # We need the ancestor bodies to record the pipelined phases.
        if self.store.ancestor_digest(block.digest, FINALITY_WINDOW - 1) is None:
            return
        state.voted_views.add(view)
        self._record_vote_phases(slot, view, block.digest)
        self.ctx.trace(TraceKind.VOTE, slot=slot, view=view, value=block.digest)
        self.ctx.broadcast(MSVote(slot, view, block.digest))

    def _record_vote_phases(self, slot: int, view: int, digest: Digest) -> None:
        """Map one pipelined vote onto the four single-shot phases."""
        current: Digest | None = digest
        for offset, phase in enumerate((Phase.VOTE1, Phase.VOTE2, Phase.VOTE3, Phase.VOTE4)):
            target_slot = slot - offset
            if target_slot < 1 or current is None or current == GENESIS_DIGEST:
                break
            storage = self.slot_state(target_slot).storage
            existing = storage.highest_vote(phase)
            if existing.is_empty or view >= existing.view:
                storage.record_vote(phase, view, current)
            block = self.store.get(current)
            current = block.parent if block is not None else None
        self.ctx.report_storage(self._storage_bytes())

    def _storage_bytes(self) -> int:
        return sum(s.storage.size_bytes() for s in self.slots.values())

    def _on_vote(self, sender: NodeId, message: MSVote) -> None:
        if message.slot < 1:
            return
        self._register_vote(sender, message)

    def _register_vote(self, sender: NodeId, vote: MSVote) -> None:
        state = self.slot_state(vote.slot)
        key = (vote.view, vote.digest)
        supporters = state.votes.setdefault(key, set())
        if sender in supporters:
            return
        supporters.add(sender)
        if self._qs().is_quorum(supporters) and vote.view not in state.notarized_by_view:
            state.notarized_by_view[vote.view] = vote.digest
            self.ctx.trace(TraceKind.NOTARIZE, slot=vote.slot, view=vote.view, value=vote.digest)
            newly_final = self.chain.notarize(vote.slot, vote.digest)
            self._handle_finalized(newly_final)
            # A fresh notarization can unlock the next slot's vote and
            # the next-next leader's proposal.
            self._maybe_vote(vote.slot + 1)
            self._maybe_propose(vote.slot + 1)
            self._maybe_propose(vote.slot + 2)

    def _after_body_arrival(self) -> None:
        """A late block body can complete a pending finalization run."""
        self._handle_finalized(self.chain.check_finalization())

    def _handle_finalized(self, blocks: list[Block]) -> None:
        for block in blocks:
            self.ctx.trace(TraceKind.FINALIZE, slot=block.slot, value=block.digest)
            if self.on_finalize is not None:
                self.on_finalize(block)
        if not blocks:
            return
        tip = self.chain.finalized_height
        for slot, state in self.slots.items():
            if slot <= tip and state.timer is not None:
                state.timer.cancel()
                state.timer = None
        self._prune(tip)

    def _prune(self, tip: int) -> None:
        """Drop per-slot state far behind the finalized tip (bounded memory)."""
        horizon = tip - RETENTION_SLOTS
        stale = [slot for slot in self.slots if slot < horizon]
        for slot in stale:
            del self.slots[slot]
        # Notarization sets below the horizon are dead weight too: the
        # finalized-slot index answers every query that still matters.
        horizon = max(0, horizon)
        self.chain.prune_below(horizon)
        # Every slot below the horizon is finalized; its finalized body
        # is the one the store keeps.
        keep = {self.chain.finalized_digest_at(s) for s in self.store.slots_below(horizon)}
        self.store.prune_below(horizon, keep)

    # -- view change (Algorithm 2) ---------------------------------------------

    def _on_view_change(self, sender: NodeId, message: MSViewChange) -> None:
        slot, view = message.slot, message.view
        if slot < 1 or view < 1:
            return
        state = self.slot_state(slot)
        if view <= state.view:
            return
        senders = state.vc_senders.setdefault(view, set())
        senders.add(sender)
        if self._qs().is_blocking(senders) and view > state.vc_sent:
            state.vc_sent = view
            self.ctx.broadcast(MSViewChange(slot, view))
        # Re-read: our own echo loops back synchronously and may have
        # advanced the slot's view already.
        if self._qs().is_quorum(senders) and view > state.view:
            self._do_view_change(slot, view)

    def _do_view_change(self, from_slot: int, view: int) -> None:
        """Move every non-finalized started slot ≥ ``from_slot`` to ``view``."""
        tip = self.chain.finalized_height
        aborted = sorted(
            slot
            for slot, state in self.slots.items()
            if slot >= from_slot and slot > tip and state.started
        )
        for slot in aborted:
            state = self.slot_state(slot)
            if view <= state.view:
                continue
            state.view = view
            state.vc_sent = max(state.vc_sent, view)
            self._arm_timer(slot)
            self.ctx.trace(TraceKind.VIEW_ENTER, slot=slot, view=view)
            suggest = state.storage.make_suggest(view)
            proof = state.storage.make_proof(view)
            self.ctx.broadcast(MSProof(slot, view, proof.vote1, proof.prev_vote1, proof.vote4))
            self.ctx.send(
                self.config.leader_of(slot, view),
                MSSuggest(slot, view, suggest.vote2, suggest.prev_vote2, suggest.vote3),
            )
        for slot in aborted:
            self._maybe_propose(slot)
            self._maybe_vote(slot)

    # -- suggest / proof -------------------------------------------------------

    def _on_suggest(self, sender: NodeId, message: MSSuggest) -> None:
        state = self.slot_state(message.slot)
        state.suggests.setdefault(message.view, {})[sender] = message
        if message.view == state.view:
            self._maybe_propose(message.slot)

    def _on_proof(self, sender: NodeId, message: MSProof) -> None:
        state = self.slot_state(message.slot)
        state.proofs.setdefault(message.view, {})[sender] = message
        if message.view == state.view:
            self._maybe_vote(message.slot)
