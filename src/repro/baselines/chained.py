"""Table 1 baselines promoted to multi-slot chained SMR engines.

:class:`~repro.baselines.base.ChainVotingNode` implements each
comparison protocol as a *single-shot* machine: one value, one
decision.  The SMR experiments need the same protocols as ordering
cores behind the :class:`~repro.smr.engine.ConsensusEngine` boundary —
deciding a *chain* of blocks whose payloads come from a live mempool —
so the paper's comparative claims can be measured end to end (client
submit → finalized execution) rather than only at Table 1 granularity.

:class:`ChainedEngine` does that by running one single-shot instance
per slot, sequentially:

* the instance for slot ``s`` is the unmodified chain-voting skeleton
  (phases, locks, view changes, Δ-waits for non-responsive protocols)
  over a per-slot leader rotation (``leader_of(slot + view)``, so a
  view change rotates away from a faulty slot leader);
* the slot's leader mints its proposal **at proposal time** from the
  engine's propose-payload hook — a block extending the engine's
  finalized tip with a fresh mempool batch — so aborted proposals are
  re-batched by the next leader exactly as in the multi-shot path;
* deciding slot ``s`` finalizes its block (there is no finality lag:
  unlike the pipelined protocol, a decision *is* finality), fires the
  finalization callback, cancels the slot's timers, and starts slot
  ``s + 1``.

Sequential slots mean nodes can skew: messages for future slots are
buffered (within a bounded window) until the local chain reaches them,
and a node left behind — e.g. the crash-recovery scenario's rebooted
replica, whose peers have long stopped re-sending old-slot votes —
recovers through a **catch-up channel**: its timeout-driven view-change
broadcast for a slot its peers already decided is answered with a
batch of decided blocks (:data:`CATCHUP_BATCH` per probe, far more
than peers can decide per timeout period, so the deficit shrinks every
round trip), which the laggard adopts and applies in chain order.
This is the minimal state-transfer path every deployed SMR system
pairs with its ordering core.

Wire messages are the skeleton's own, wrapped in a slot envelope
(:class:`SlotMessage`); honest-node message complexity per slot is the
single-shot protocol's.  Storage: the engine keeps the finalized chain
(the ledger) plus a bounded window of undecided-slot state, and prunes
non-finalized block bodies behind :data:`RETENTION_SLOTS`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.baselines.base import BaselineSpec, BViewChange, ChainVotingNode
from repro.core.config import ProtocolConfig
from repro.multishot.batching import BatchingContext, batching_enabled
from repro.multishot.block import GENESIS_DIGEST, Block, BlockStore
from repro.multishot.messages import VoteBatch
from repro.multishot.node import (
    FinalizeCallback,
    PayloadFn,
    default_payload,
)
from repro.quorums.system import NodeId
from repro.sim.runner import NodeContext
from repro.sim.trace import TraceKind

#: Non-finalized block bodies (aborted proposals) older than this many
#: slots behind the tip are pruned; finalized bodies are the ledger and
#: are kept (they also serve catch-up replies).
RETENTION_SLOTS = 16

#: How far ahead of the local chain a message may be and still be
#: buffered.  Anything further is dropped — the catch-up channel, not
#: the buffer, is what brings a badly lagging node back.
BUFFER_WINDOW = 32

#: Decided blocks served per catch-up reply.  Must comfortably exceed
#: the slots a peer can decide per view timeout (one per good-case
#: round trip, ≈ 9Δ/3Δ = 3 for the shortest ladder), so a laggard
#: probing once per timeout gains ground much faster than it loses it
#: and converges even under sustained load with repeated outages.
CATCHUP_BATCH = 64


@dataclass(frozen=True)
class SlotMessage:
    """A single-shot protocol message travelling on behalf of one slot."""

    slot: int
    inner: object

    def wire_size(self) -> int:
        from repro.metrics.collectors import estimate_wire_size

        return 8 + estimate_wire_size(self.inner)


@dataclass(frozen=True)
class CatchUp:
    """State transfer: decided blocks from ``slot`` on, chain order."""

    slot: int
    blocks: tuple[Block, ...]

    def wire_size(self) -> int:
        return 8 + sum(block.wire_size() for block in self.blocks)


class _DeadHandle:
    """Timer handle for an already-decided slot: never scheduled."""

    __slots__ = ()

    def cancel(self) -> None:
        pass


_DEAD_HANDLE = _DeadHandle()


class _SlotContext:
    """The context one slot instance sees: slot-tags outgoing traffic,
    tracks timers for cancellation at decision, and turns the
    skeleton's single-shot decision report into the engine's
    finalization step."""

    __slots__ = ("_engine", "_slot")

    def __init__(self, engine: "ChainedEngine", slot: int) -> None:
        self._engine = engine
        self._slot = slot

    @property
    def now(self) -> float:
        return self._engine.ctx.now

    def send(self, dst: NodeId, message: object) -> None:
        self._engine.ctx.send(dst, SlotMessage(self._slot, message))

    def broadcast(self, message: object) -> None:
        self._engine.ctx.broadcast(SlotMessage(self._slot, message))

    def set_timer(self, delay: float, callback):
        engine = self._engine
        if self._slot < engine.active_slot:
            # The slot decided while a timer callback was in flight; its
            # re-arm must not keep a dead instance ticking forever.
            return _DEAD_HANDLE
        handle = engine.ctx.set_timer(delay, callback)
        engine._slot_timers.append(handle)
        return handle

    def report_decision(self, value: object) -> None:
        self._engine._on_slot_decided(self._slot, value)

    def report_view_entry(self, view: int) -> None:
        # Per-slot view entries are protocol detail, not a run-level
        # latency milestone: trace them, keyed by slot.
        self._engine.ctx.trace(TraceKind.VIEW_ENTER, slot=self._slot, view=view)

    def report_storage(self, size_bytes: int) -> None:
        # The instance reports its O(1)-or-log state; the chain itself
        # grows like any ledger (one entry per finalized block).
        engine = self._engine
        engine.ctx.report_storage(size_bytes + 16 * len(engine.finalized))

    def trace(self, kind: TraceKind, **detail: object) -> None:
        self._engine.ctx.trace(kind, slot=self._slot, **detail)


class _SlotShot(ChainVotingNode):
    """One slot's single-shot instance: the unmodified skeleton, except
    that a leader with nothing forced mints a fresh block from the
    engine's payload hook instead of carrying a preset initial value."""

    def __init__(self, engine: "ChainedEngine", slot: int) -> None:
        super().__init__(
            engine.node_id,
            engine.slot_config(slot),
            engine.spec,
            initial_value=None,
        )
        self._engine = engine
        self._slot = slot

    def _choose_value(self) -> object:
        value = super()._choose_value()
        if value is None:
            value = self._engine._mint_block(self._slot)
        return value


class ChainedEngine:
    """A Table 1 baseline protocol as a multi-slot consensus engine.

    Satisfies :class:`~repro.smr.engine.ConsensusEngine` structurally;
    see the module docstring for the slot/catch-up design.
    """

    def __init__(
        self,
        node_id: NodeId,
        base: ProtocolConfig,
        spec: BaselineSpec,
        payload_fn: PayloadFn | None = None,
        on_finalize: FinalizeCallback | None = None,
        max_slots: int | None = None,
        batching: bool | None = None,
    ) -> None:
        self.node_id = node_id
        self.base = base
        self.spec = spec
        self.payload_fn = payload_fn if payload_fn is not None else default_payload
        self.on_finalize = on_finalize
        self.max_slots = max_slots
        # None → consult the REPRO_NO_BATCH escape hatch at start().
        self._batching = batching
        self._batch_ctx: BatchingContext | None = None
        self.store = BlockStore()
        self.finalized: list[Block] = []
        self.active_slot = 1
        self._shot: _SlotShot | None = None
        self._slot_timers: list = []
        self._buffer: dict[int, list[tuple[NodeId, object]]] = {}
        self._ctx: NodeContext | None = None

    # -- plumbing -------------------------------------------------------------

    @property
    def ctx(self) -> NodeContext:
        assert self._ctx is not None, "engine used before start()"
        return self._ctx

    @property
    def finalized_chain(self) -> list[Block]:
        return list(self.finalized)

    def slot_config(self, slot: int) -> ProtocolConfig:
        """Per-slot leader rotation: slot ``s`` at view ``v`` is led by
        node ``(s + v) mod n``, mirroring the multi-shot scheme."""
        ids = self.base.node_ids
        return replace(self.base, leader_fn=lambda view: ids[(slot + view) % len(ids)])

    def _tip_digest(self) -> str:
        return self.finalized[-1].digest if self.finalized else GENESIS_DIGEST

    # -- lifecycle ----------------------------------------------------------------

    def start(self, ctx: NodeContext) -> None:
        if self._batching is None:
            self._batching = batching_enabled()
        if self._batching:
            self._batch_ctx = BatchingContext(ctx)
            ctx = self._batch_ctx
        self._ctx = ctx
        self._start_slot(1)
        if self._batch_ctx is not None:
            self._batch_ctx.flush()

    def _start_slot(self, slot: int) -> None:
        if self.max_slots is not None and slot > self.max_slots:
            self._shot = None
            return
        self._shot = _SlotShot(self, slot)
        self._shot.start(_SlotContext(self, slot))
        # Replay messages that arrived while our chain was still behind.
        for sender, message in self._buffer.pop(slot, []):
            if self.active_slot != slot:
                break  # decided mid-replay; the rest are stale
            self._dispatch(sender, message)

    def _mint_block(self, slot: int) -> Block:
        parent = self._tip_digest()
        block = Block.create(slot, parent, self.payload_fn(slot, parent))
        self.store.add(block)
        return block

    # -- receive -------------------------------------------------------------------

    def receive(self, sender: NodeId, message: object) -> None:
        if type(message) is VoteBatch:
            for item in message.messages:
                self._receive_one(sender, item)
        else:
            self._receive_one(sender, message)
        if self._batch_ctx is not None:
            self._batch_ctx.flush()

    def _receive_one(self, sender: NodeId, message: object) -> None:
        if isinstance(message, CatchUp):
            if message.slot > self.active_slot:
                if message.slot <= self.active_slot + BUFFER_WINDOW:
                    self._buffer.setdefault(message.slot, []).append((sender, message))
            else:
                # Even a partially stale batch may reach our active
                # slot in its tail; _adopt skips what we already have.
                self._adopt(message.blocks)
            return
        if not isinstance(message, SlotMessage):
            return  # not ours (e.g. cross-protocol traffic in a shared sim)
        slot = message.slot
        if slot < self.active_slot:
            self._maybe_serve_catchup(sender, message)
            return
        if slot > self.active_slot or self._shot is None:
            if slot <= self.active_slot + BUFFER_WINDOW and (
                self.max_slots is None or slot <= self.max_slots
            ):
                self._buffer.setdefault(slot, []).append((sender, message))
            return
        self._dispatch(sender, message)

    def _dispatch(self, sender: NodeId, message: object) -> None:
        if isinstance(message, CatchUp):
            self._adopt(message.blocks)
        else:
            assert self._shot is not None
            self._shot.receive(sender, message.inner)

    def _maybe_serve_catchup(self, sender: NodeId, message: SlotMessage) -> None:
        """Answer a laggard's view-change probe with decided blocks.

        Only timeout-driven view changes trigger a reply — they recur
        every timeout period while the sender stays stuck, which makes
        them the natural, already-rate-limited "I am behind" signal.
        Each reply carries up to :data:`CATCHUP_BATCH` consecutive
        blocks from the probed slot on, so one probe recovers far more
        chain than peers can decide per timeout period: a laggard's
        deficit shrinks every round trip and convergence is guaranteed
        even while the cluster keeps committing.

        The probe is a broadcast, so exactly one peer — picked by the
        same deterministic rotation every receiver computes, skipping
        the prober itself — replies; n-1 identical multi-block replies
        would all but the first be discarded as stale.
        """
        if not isinstance(message.inner, BViewChange):
            return
        slot = message.slot
        if slot < 1 or slot > len(self.finalized):
            return
        ids = self.base.node_ids
        responder = ids[(slot + message.inner.view) % len(ids)]
        if responder == sender:
            responder = ids[(slot + message.inner.view + 1) % len(ids)]
        if responder != self.node_id:
            return
        blocks = tuple(self.finalized[slot - 1 : slot - 1 + CATCHUP_BATCH])
        self.ctx.send(sender, CatchUp(slot, blocks))

    def _adopt(self, blocks: tuple[Block, ...]) -> None:
        """Adopt a peer's decided blocks, in order, from our active slot.

        The batch is finalized in one sweep and the protocol resumes
        with a single slot instance at the end: spinning up (and
        instantly retiring) an instance per intermediate slot would arm
        dead timers and, wherever this node leads, mint and broadcast
        proposals for slots the cluster already decided.
        """
        adopted = False
        for block in blocks:
            if block.slot != self.active_slot or block.parent != self._tip_digest():
                continue  # stale or inconsistent transfer: skip
            self._finalize_block(block)
            adopted = True
        if adopted:
            self._start_slot(self.active_slot)

    # -- finalization --------------------------------------------------------------

    def _on_slot_decided(self, slot: int, value: object) -> None:
        if slot != self.active_slot:
            return  # duplicate decision report from a dead instance
        if not isinstance(value, Block):
            raise TypeError(
                f"chained engine decided a non-block value {value!r}; "
                "payload hooks must mint Block proposals"
            )
        self._finalize_block(value)
        self._start_slot(self.active_slot)

    def _finalize_block(self, block: Block) -> None:
        """Commit the active slot's block and advance (no new instance)."""
        self.store.add(block)
        self.finalized.append(block)
        for handle in self._slot_timers:
            handle.cancel()
        self._slot_timers.clear()
        self._buffer.pop(block.slot, None)
        self.ctx.trace(TraceKind.FINALIZE, slot=block.slot, value=block.digest)
        if self.on_finalize is not None:
            self.on_finalize(block)
        self.active_slot = block.slot + 1
        self._prune()

    def _prune(self) -> None:
        """Drop aborted-proposal bodies far behind the finalized tip."""
        horizon = self.active_slot - RETENTION_SLOTS
        if horizon > 0:
            # Slot s is finalized[s - 1]: only the active slot is ever appended.
            keep = {self.finalized[s - 1].digest for s in self.store.slots_below(horizon)}
            self.store.prune_below(horizon, keep)
