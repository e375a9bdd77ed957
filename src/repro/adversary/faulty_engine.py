"""Byzantine nodes: one wrapper, a repertoire of deviations.

The paper's adversary can lie about content arbitrarily but cannot
forge sender identity.  Every faulty node in this repository is written
the same way: a :class:`FaultyEngine` wraps the *honest* node it
corrupts — a single-shot :class:`~repro.core.node.TetraBFTNode`, a
pipelined :class:`~repro.multishot.node.MultiShotNode`, or a chained
baseline behind the :class:`~repro.smr.engine.ConsensusEngine`
boundary — and a pluggable :class:`Deviation` filters, forges, splits
or sprays its traffic.  The wrapper needs only ``start``/``receive``
from what it wraps, so one misbehaviour is written once.

Deviations that corrupt the honest node's own traffic:

* :class:`Silence` — drops every outbound message (crash-from-start);
* :class:`ScheduledCrash` — honest outside a ``[crash_at, recover_at)``
  window, deaf and mute inside it (rolling crash/recover when combined
  with the engines' catch-up paths);
* :class:`Equivocate` — splits every proposal and vote broadcast: one
  half of the network sees the honest block, the other a forged twin
  minted for the same slot and parent, with votes kept consistent per
  half via a twin cache;
* :class:`Withhold` — suppresses outbound votes, or only the chosen
  single-shot phases (a participation attack: the node still
  receives, counts and proposes);
* :class:`FabricateHistory` — refuses to propose when leading (forcing
  view changes on its slots) and answers the resulting view changes
  with forged vote histories / lock claims pushing a poison block, the
  attack Rules 1–4 (and any lock-based recovery) must survive;
* :class:`Chaos` — a seeded stream of dropped, duplicated and
  mutated-replayed protocol messages (the engine-layer
  ``ByzantineHavoc``);
* :class:`RepeatTransaction` — lists a transaction twice in each block
  it proposes, which every replica must still execute once.

:class:`Impostor` deviations instead keep the wrapped node deaf and
mute and speak for it alone, through ``engine._emit``.  The single-shot
ones, run by the fault-injection tests over :func:`faulty_node`:

* :class:`EquivocateValues` — proposes one value to each half of the
  network when it leads, and echoes every vote both ways;
* :class:`ForgeSuggestProof` — answers view changes with forged
  suggest/proof histories pushing a poison value;
* :class:`Havoc` — the TLA+ ``ByzantineHavoc``: seeded random,
  type-correct protocol messages sprayed at random nodes.

:func:`faulty_factory` is the :data:`~repro.smr.engine.EngineFactory`
combinator the campaign runner (:mod:`repro.eval.attacks`) builds
clusters from: replicas whose ids land in the f-bounded faulty set get
their engine wrapped, everyone else runs the unmodified engine.  All
randomness is seeded — the same (attack, seed) pair yields
byte-identical traces, which the unit tests pin.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import replace

from repro.baselines.base import BPhaseVote, BProposal, BRound, BViewChange
from repro.baselines.chained import SlotMessage
from repro.core.config import ProtocolConfig
from repro.core.messages import Proof, Proposal, Suggest, ViewChange, Vote, VoteRecord
from repro.core.node import TetraBFTNode
from repro.core.values import Phase, Value
from repro.multishot.batching import iter_logical
from repro.multishot.block import GENESIS_DIGEST, Block, BlockStore, Digest
from repro.multishot.messages import (
    MSProof,
    MSProposal,
    MSSuggest,
    MSViewChange,
    MSVote,
)
from repro.quorums.system import NodeId
from repro.sim.runner import NodeContext, SimNode
from repro.smr.engine import ConsensusEngine, EngineFactory

#: A delivery the deviation wants made: ``(destination, message)``
#: where a ``None`` destination means broadcast.
Delivery = tuple[NodeId | None, object]

#: Builds the per-node deviation for one faulty replica.
DeviationFactory = Callable[[NodeId], "Deviation"]


def _unwrap(message: object) -> tuple[int | None, object]:
    """``(slot, inner)`` for chained slot envelopes, ``(None, msg)`` else."""
    if isinstance(message, SlotMessage):
        return message.slot, message.inner
    return None, message


def _rewrap(message: object, inner: object) -> object:
    """Put a mutated inner message back into its original envelope."""
    if isinstance(message, SlotMessage):
        return SlotMessage(message.slot, inner)
    return inner


def is_proposal(message: object) -> bool:
    """Engine-generic: does ``message`` carry a leader proposal?"""
    return isinstance(_unwrap(message)[1], (MSProposal, BProposal))


def is_vote(message: object) -> bool:
    """Engine-generic: does ``message`` carry a vote?"""
    return isinstance(_unwrap(message)[1], (Vote, MSVote, BPhaseVote))


def _halves(ids: Sequence[NodeId]) -> tuple[list[NodeId], list[NodeId]]:
    """The low-id and high-id halves an equivocator splits the network in."""
    mid = len(ids) // 2
    return list(ids[:mid]), list(ids[mid:])


class Deviation:
    """Strategy hook deciding what a faulty replica does with traffic.

    The default implementation is perfectly honest; subclasses override
    :meth:`outbound` (filter/forge what the wrapped engine sends),
    :meth:`inbound` (filter what it hears) and :meth:`on_start`
    (schedule autonomous behaviour).  ``self.engine`` is bound before
    any hook runs.
    """

    engine: "FaultyEngine"

    def bind(self, engine: "FaultyEngine") -> None:
        self.engine = engine

    def on_start(self) -> None:
        """Called once, after the wrapped engine started."""

    def outbound(self, dst: NodeId | None, message: object) -> list[Delivery]:
        """Deliveries to make for one send (``dst``) or broadcast (None)."""
        return [(dst, message)]

    def inbound(self, sender: NodeId, message: object) -> bool:
        """Whether to deliver one received message to the wrapped engine."""
        del sender, message
        return True


class _DeviantContext(NodeContext):
    """Context proxy routing the wrapped engine's sends through the
    deviation.  Timers, traces and metric reports pass through — the
    adversary lies on the wire, not to the local bookkeeping."""

    def __init__(self, real: NodeContext, engine: "FaultyEngine") -> None:
        super().__init__(real.node_id, real._sim)
        self._engine = engine

    def send(self, dst: NodeId, message: object) -> None:
        self._engine._emit(self._engine.deviation.outbound(dst, message))

    def broadcast(self, message: object) -> None:
        # Unbatch aggregated frames so type-dispatching deviations see
        # every logical message; a faulty node's own traffic then goes
        # out unbatched, which only it can observe.
        engine = self._engine
        for item in iter_logical(message):
            engine._emit(engine.deviation.outbound(None, item))


class FaultyEngine:
    """A Byzantine wrapper around any honest node or consensus engine.

    Wrapping an engine, it is structurally a
    :class:`~repro.smr.engine.ConsensusEngine`: the SMR replica drives
    it exactly like an honest engine; wrapping a protocol node, it is a
    :class:`~repro.sim.runner.SimNode`.  Every outbound message the
    wrapped node produces is routed through the bound
    :class:`Deviation` (which may drop, rewrite, split or multiply it)
    and every inbound message may be suppressed; the wrapped node
    itself stays the honest state machine, so pre-attack behaviour is
    exactly the protocol's.
    """

    def __init__(
        self, node_id: NodeId, inner: ConsensusEngine | SimNode, deviation: Deviation
    ) -> None:
        self.node_id = node_id
        self.inner = inner
        self.deviation = deviation
        self._ctx: NodeContext | None = None
        deviation.bind(self)

    # -- SimNode / ConsensusEngine surface ---------------------------------------

    def start(self, ctx: NodeContext) -> None:
        self._ctx = ctx
        self.inner.start(_DeviantContext(ctx, self))
        self.deviation.on_start()

    def receive(self, sender: NodeId, message: object) -> None:
        # Filter aggregated frames per logical message — otherwise an
        # envelope would smuggle whole vote batches past the deviation.
        for item in iter_logical(message):
            if self.deviation.inbound(sender, item):
                self.inner.receive(sender, item)

    @property
    def store(self) -> BlockStore:
        return self.inner.store

    @property
    def finalized_chain(self) -> list[Block]:
        return self.inner.finalized_chain

    # -- deviation services ----------------------------------------------------

    @property
    def ctx(self) -> NodeContext:
        assert self._ctx is not None, "faulty engine used before start()"
        return self._ctx

    @property
    def now(self) -> float:
        return self.ctx.now

    def tip_digest(self) -> Digest:
        chain = self.inner.finalized_chain
        return chain[-1].digest if chain else GENESIS_DIGEST

    def _emit(self, deliveries: list[Delivery]) -> None:
        ctx = self.ctx
        for dst, message in deliveries:
            if dst is None:
                ctx.broadcast(message)
            else:
                ctx.send(dst, message)


# -- the repertoire -----------------------------------------------------------


class Silence(Deviation):
    """Sends nothing, ever — the engine-layer crash-from-start."""

    def outbound(self, dst: NodeId | None, message: object) -> list[Delivery]:
        del dst, message
        return []


class ScheduledCrash(Deviation):
    """Honest until ``crash_at``; dark until ``recover_at`` (or forever).

    Inbound traffic is suppressed during the outage too, so on recovery
    the wrapped engine is genuinely behind and must rejoin through the
    protocol's own catch-up path (state transfer for the chained
    engines, notarization catch-up for the pipelined one).
    """

    def __init__(self, crash_at: float, recover_at: float | None = None) -> None:
        self.crash_at = crash_at
        self.recover_at = recover_at

    def _dark(self) -> bool:
        now = self.engine.now
        if now < self.crash_at:
            return False
        return self.recover_at is None or now < self.recover_at

    def outbound(self, dst: NodeId | None, message: object) -> list[Delivery]:
        if self._dark():
            return []
        return [(dst, message)]

    def inbound(self, sender: NodeId, message: object) -> bool:
        del sender, message
        return not self._dark()


class Withhold(Deviation):
    """Drops outbound votes; everything else flows honestly.

    ``phases`` narrows the attack to single-shot votes of those phases
    (starving one stage of the pipeline); by default every vote goes.
    With at most ``f`` withholders the remaining ``n - f`` honest nodes
    still form quorums, so every engine must stay live — the campaign
    asserts exactly that for TetraBFT.
    """

    def __init__(self, phases: Iterable[Phase] | None = None) -> None:
        self.phases = None if phases is None else frozenset(phases)

    def outbound(self, dst: NodeId | None, message: object) -> list[Delivery]:
        phase = getattr(_unwrap(message)[1], "phase", None)
        if is_vote(message) and (self.phases is None or phase in self.phases):
            return []
        return [(dst, message)]


class Equivocate(Deviation):
    """Shows each half of the network a different lineage.

    Proposal broadcasts are split: the low-id half receives the honest
    block, the high-id half a forged twin for the same slot and parent
    (so both lineages are well-formed).  Votes follow the same split,
    translated through a twin cache so each half's votes consistently
    endorse the lineage it was shown.  Within-view safety (Lemma 6 for
    TetraBFT; the decide-quorum intersection argument for the chained
    baselines) must hold regardless.
    """

    def __init__(self, node_id: NodeId, config: ProtocolConfig) -> None:
        self.node_id = node_id
        self.ids = list(config.node_ids)
        # digest → twin digest, both directions, so a vote for either
        # lineage translates to its counterpart for the other half.
        self._twin_digest: dict[Digest, Digest] = {}

    def _twin_block(self, block: Block) -> Block:
        twin = Block.create(block.slot, block.parent, ("equivocation", self.node_id, block.slot))
        self._twin_digest[block.digest] = twin.digest
        self._twin_digest[twin.digest] = block.digest
        return twin

    def _twin_message(self, message: object) -> object | None:
        """The conflicting counterpart of one outbound message."""
        _, inner = _unwrap(message)
        if isinstance(inner, MSProposal):
            return _rewrap(message, replace(inner, block=self._twin_block(inner.block)))
        if isinstance(inner, BProposal) and isinstance(inner.value, Block):
            return _rewrap(message, replace(inner, value=self._twin_block(inner.value)))
        if isinstance(inner, MSVote):
            twin = self._twin_digest.get(inner.digest)
            if twin is None:
                return None
            return _rewrap(message, replace(inner, digest=twin))
        if isinstance(inner, BPhaseVote) and isinstance(inner.value, Block):
            twin = self._twin_digest.get(inner.value.digest)
            if twin is None:
                return None
            twin_block = self.engine.store.get(twin)
            if twin_block is None:
                return None
            return _rewrap(message, replace(inner, value=twin_block))
        return None

    def outbound(self, dst: NodeId | None, message: object) -> list[Delivery]:
        if dst is not None or not (is_proposal(message) or is_vote(message)):
            return [(dst, message)]
        twin = self._twin_message(message)
        if twin is None:
            return [(dst, message)]
        if is_proposal(message):
            # Keep the twin body resolvable for later vote translation.
            _, inner = _unwrap(twin)
            body = inner.block if isinstance(inner, MSProposal) else inner.value
            if isinstance(body, Block):
                self.engine.store.add(body)
        low, high = _halves(self.ids)
        return [(node, message) for node in low] + [(node, twin) for node in high]


class FabricateHistory(Deviation):
    """Forges protocol history during view changes.

    Never proposes when leading (its slots must time out, creating the
    view changes the forgery needs), then:

    * **pipelined TetraBFT** — outbound suggest/proof messages are
      rewritten, and every observed view change answered, with
      :class:`~repro.core.messages.VoteRecord` claims that a poison
      digest was voted at the highest views imaginable — the lie
      Rules 1–4 must reject without a blocking set to vouch for it;
    * **chained baselines** — outbound view-change/round messages claim
      a maximal lock on a poison block extending the current tip, the
      lie the highest-lock recovery rule is most exposed to.

    Poison payloads are type-correct but carry no transactions, so an
    engine that *does* finalize one merely wastes the slot.
    """

    #: How far above the current view forged lock claims reach.
    LOCK_LEAD = 50

    def __init__(self, node_id: NodeId, config: ProtocolConfig) -> None:
        self.node_id = node_id
        self.ids = list(config.node_ids)
        self._answered: set[tuple[int | None, int]] = set()

    def _poison_digest(self, slot: int | None, view: int) -> Digest:
        return f"poison-{self.node_id}-{slot}-{view}"

    def _poison_block(self, slot: int) -> Block:
        block = Block.create(slot, self.engine.tip_digest(), ("poison", self.node_id))
        self.engine.store.add(block)
        return block

    def _forged_records(self, slot: int | None, view: int) -> tuple[VoteRecord, VoteRecord]:
        """The (highest, previous) vote claims a forged history makes."""
        high = VoteRecord(view=max(view - 1, 0), value=self._poison_digest(slot, view))
        prev = VoteRecord(view=max(view - 2, 0), value=self._poison_digest(slot, 0))
        return high, prev

    def outbound(self, dst: NodeId | None, message: object) -> list[Delivery]:
        slot, inner = _unwrap(message)
        if isinstance(inner, (MSProposal, BProposal)):
            return []  # leading ⇒ stall the slot into a view change
        if isinstance(inner, MSSuggest):
            high, prev = self._forged_records(inner.slot, inner.view)
            return [(dst, replace(inner, vote2=high, prev_vote2=prev, vote3=high))]
        if isinstance(inner, MSProof):
            high, prev = self._forged_records(inner.slot, inner.view)
            return [(dst, replace(inner, vote1=high, prev_vote1=prev, vote4=high))]
        if isinstance(inner, (BViewChange, BRound)) and slot is not None:
            poisoned = replace(
                inner,
                lock_view=inner.view + self.LOCK_LEAD,
                lock_value=self._poison_block(slot),
            )
            return [(dst, _rewrap(message, poisoned))]
        return [(dst, message)]

    def inbound(self, sender: NodeId, message: object) -> bool:
        _, inner = _unwrap(message)
        if isinstance(inner, MSViewChange) and sender != self.node_id:
            key = (inner.slot, inner.view)
            if key not in self._answered:
                self._answered.add(key)
                self._spray_forgeries(inner.slot, inner.view)
        return True

    def _spray_forgeries(self, slot: int, view: int) -> None:
        """Answer a view change with forged suggest/proof histories."""
        high, prev = self._forged_records(slot, view)
        leader = self.ids[(slot + view) % len(self.ids)]
        proof = MSProof(slot, view, high, prev, high)
        self.engine._emit([(None, proof), (leader, MSSuggest(slot, view, high, prev, high))])


class Chaos(Deviation):
    """Seeded engine-layer havoc: drop, duplicate, mutate, replay.

    Outbound messages are dropped or duplicated at random; inbound
    traffic feeds a bounded replay buffer that a periodic timer sprays
    back at random nodes with slot/view fields randomly bumped — a
    stream of stale, duplicated and subtly-wrong but type-correct
    protocol messages.  Fully deterministic for a fixed seed.
    """

    BUFFER = 32

    def __init__(
        self,
        node_id: NodeId,
        config: ProtocolConfig,
        seed: int = 0,
        period: float = 2.0,
        burst: int = 4,
        horizon: float = 120.0,
    ) -> None:
        self.node_id = node_id
        self.ids = list(config.node_ids)
        self.period = period
        self.burst = burst
        self.horizon = horizon
        # Mixed as plain ints: tuple seeds go through hash(), which is
        # process-salted and would break cross-run trace identity.
        self._rng = random.Random(seed * 1_000_003 + node_id)
        self._recent: list[object] = []

    def on_start(self) -> None:
        self.engine.ctx.set_timer(self.period, self._tick)

    def outbound(self, dst: NodeId | None, message: object) -> list[Delivery]:
        roll = self._rng.random()
        if roll < 0.25:
            return []  # drop
        if roll < 0.5:
            extra = self._rng.choice(self.ids)
            return [(dst, message), (extra, message)]  # duplicate
        return [(dst, message)]

    def inbound(self, sender: NodeId, message: object) -> bool:
        del sender
        self._recent.append(message)
        if len(self._recent) > self.BUFFER:
            self._recent.pop(0)
        return True

    def _mutate(self, message: object) -> object:
        """Randomly bump integer slot/view fields, keeping types legal."""
        _, inner = _unwrap(message)
        fields = {}
        for name in ("slot", "view"):
            value = getattr(inner, name, None)
            if isinstance(value, int) and self._rng.random() < 0.5:
                fields[name] = max(1, value + self._rng.randint(-1, 2))
        if not fields:
            return message
        try:
            return _rewrap(message, replace(inner, **fields))
        except (TypeError, ValueError):
            return message

    def _tick(self) -> None:
        if self.engine.now > self.horizon:
            return
        if self._recent:
            for _ in range(self.burst):
                victim = self._rng.choice(self._recent)
                target = self._rng.choice(self.ids)
                self.engine._emit([(target, self._mutate(victim))])
        self.engine.ctx.set_timer(self.period, self._tick)


class RepeatTransaction(Deviation):
    """Proposes each block with its first transaction listed twice.

    Honest voters never read a payload, so the block is notarized and
    finalized like any other; execution must apply the repeated txid
    once, as the auditor's replay does.  Pipelined proposals only: the
    rewritten block is the one the network, this node included, sees.
    """

    def outbound(self, dst: NodeId | None, message: object) -> list[Delivery]:
        if isinstance(message, MSProposal):
            block = message.block
            payload = block.payload
            if isinstance(payload, tuple) and payload:
                repeated = Block.create(block.slot, block.parent, payload + payload[:1])
                return [(dst, replace(message, block=repeated))]
        return [(dst, message)]


# -- impostors: the node speaks only through its deviation ---------------------


class Impostor(Silence):
    """Keeps the wrapped honest node deaf and mute and speaks for it.

    Outbound traffic is dropped as under :class:`Silence`, and nothing
    received reaches the wrapped node: each message goes to
    :meth:`hear` instead.  What the faulty node sends comes only from
    the hooks, through ``engine._emit``.
    """

    def inbound(self, sender: NodeId, message: object) -> bool:
        self.hear(sender, message)
        return False

    def hear(self, sender: NodeId, message: object) -> None:
        """React to one received message."""
        del sender, message


class EquivocateValues(Impostor):
    """Sends value A to one half and value B to the other when leading.

    It also casts conflicting votes (phase by phase, one value per
    half) to push both candidate values as far through the pipeline as
    it can.  Within-view safety must hold regardless — that is Lemma 6,
    and the integration tests assert it against this node.
    """

    def __init__(
        self, node_id: NodeId, config: ProtocolConfig, value_a: Value, value_b: Value
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.value_a = value_a
        self.value_b = value_b
        self._proposed_views: set[int] = set()
        self._voted: set[tuple[int, Phase]] = set()

    def _split(self, make: Callable[[Value], object]) -> None:
        """Send ``make(value_a)`` to the low half, ``make(value_b)`` to the high."""
        low, high = _halves(self.config.node_ids)
        deliveries = [(dst, make(self.value_a)) for dst in low]
        deliveries += [(dst, make(self.value_b)) for dst in high]
        self.engine._emit(deliveries)

    def on_start(self) -> None:
        self._propose(0)

    def _propose(self, view: int) -> None:
        if view in self._proposed_views or self.config.leader_of(view) != self.node_id:
            return
        self._proposed_views.add(view)
        self._split(lambda value: Proposal(view, value))

    def hear(self, sender: NodeId, message: object) -> None:
        if isinstance(message, (ViewChange, Suggest, Proof)):
            self._propose(message.view)
        elif isinstance(message, Vote):
            key = (message.view, message.phase)
            if key not in self._voted:
                self._voted.add(key)
                self._split(lambda value: Vote(message.phase, message.view, value))


class ForgeSuggestProof(Impostor):
    """Forges suggest/proof histories during view changes.

    On every view change it hears from a peer it sends, to the new
    leader and to all nodes, histories claiming it voted for
    ``poison_value`` at the highest views imaginable — trying to make
    Rule 1/Rule 3 admit an unsafe value — and echoes the view change so
    it does not slow the honest nodes.  A single node is less than a
    blocking set, so its lies must never suffice on their own.
    """

    def __init__(self, node_id: NodeId, config: ProtocolConfig, poison_value: Value) -> None:
        self.node_id = node_id
        self.config = config
        self.poison_value = poison_value
        self._forged_views: set[int] = set()

    def hear(self, sender: NodeId, message: object) -> None:
        if not isinstance(message, ViewChange) or sender == self.node_id:
            return  # our own loop-back echo; reacting would recurse forever
        view = message.view
        if view in self._forged_views:
            return
        self._forged_views.add(view)
        high = VoteRecord(view=max(view - 1, 0), value=self.poison_value)
        prev = VoteRecord(view=max(view - 2, 0), value=("bogus", view))
        suggest = Suggest(view, vote2=high, prev_vote2=prev, vote3=high)
        proof = Proof(view, vote1=high, prev_vote1=prev, vote4=high)
        leader = self.config.leader_of(view)
        self.engine._emit([(leader, suggest), (None, proof), (None, ViewChange(view))])


class Havoc(Impostor):
    """Seeded random Byzantine havoc (the TLA+ ``ByzantineHavoc`` action).

    Every ``period`` time units until ``horizon`` it sprays ``burst``
    random, well-formed protocol messages — votes of any phase for any
    value at nearby views, proposals, forged suggests/proofs, and
    view-changes — each to a random node.  Whatever it does, honest
    nodes must never disagree.
    """

    def __init__(
        self,
        config: ProtocolConfig,
        values: Sequence[Value],
        seed: int = 0,
        period: float = 1.0,
        burst: int = 6,
        horizon: float = 200.0,
    ) -> None:
        self.config = config
        self.values = list(values)
        self.period = period
        self.burst = burst
        self.horizon = horizon
        self._rng = random.Random(seed)
        self._view_hint = 0

    def on_start(self) -> None:
        self.engine.ctx.set_timer(self.period, self._tick)

    def hear(self, sender: NodeId, message: object) -> None:
        view = getattr(message, "view", None)
        if isinstance(view, int):
            self._view_hint = max(self._view_hint, view)

    def _random_message(self) -> object:
        rng = self._rng
        view = max(0, self._view_hint + rng.randint(-1, 2))
        value = rng.choice(self.values)
        kind = rng.randrange(5)
        if kind == 0:
            return Proposal(view, value)
        if kind == 1:
            return Vote(Phase(rng.randint(1, 4)), view, value)
        if kind == 4:
            return ViewChange(view + 1)
        record = VoteRecord(max(0, view - rng.randint(0, 2)), value)
        other = VoteRecord(max(0, view - rng.randint(0, 3)), rng.choice(self.values))
        if kind == 2:
            return Suggest(view, vote2=record, prev_vote2=other, vote3=record)
        return Proof(view, vote1=record, prev_vote1=other, vote4=record)

    def _tick(self) -> None:
        if self.engine.now > self.horizon:
            return
        targets = self.config.node_ids
        for _ in range(self.burst):
            message = self._random_message()
            self.engine._emit([(self._rng.choice(targets), message)])
        self.engine.ctx.set_timer(self.period, self._tick)


# -- factory combinators -------------------------------------------------------


def faulty_node(
    node_id: NodeId,
    config: ProtocolConfig,
    deviation: Deviation,
    initial_value: Value = None,
) -> FaultyEngine:
    """A single-shot TetraBFT participant running ``deviation`` over an
    honest :class:`TetraBFTNode` (which proposes ``initial_value``
    wherever the deviation lets it speak)."""
    return FaultyEngine(node_id, TetraBFTNode(node_id, config, initial_value), deviation)


def faulty_factory(
    inner: EngineFactory,
    deviation: DeviationFactory,
    faulty: Iterable[NodeId],
) -> EngineFactory:
    """An :data:`EngineFactory` whose ``faulty`` replicas misbehave.

    Replicas with ids in ``faulty`` get their engine wrapped in a
    :class:`FaultyEngine` driving ``deviation(node_id)``; all others
    build the unmodified inner engine.  This is the combinator the
    campaign runner composes with any registered engine factory.
    """
    faulty_set = frozenset(faulty)

    def build(node_id: NodeId, payload_fn, on_finalize) -> ConsensusEngine:
        engine = inner(node_id, payload_fn, on_finalize)
        if node_id in faulty_set:
            return FaultyEngine(node_id, engine, deviation(node_id))
        return engine

    return build


#: The attack registry: name → (node_id, config, seed) → Deviation.
#: One entry per deviation family; the campaign grid iterates these.
ATTACKS: dict[str, Callable[[NodeId, ProtocolConfig, int], Deviation]] = {
    "silence": lambda node_id, config, seed: Silence(),
    "crash": lambda node_id, config, seed: ScheduledCrash(
        crash_at=15.0, recover_at=60.0
    ),
    "equivocate": lambda node_id, config, seed: Equivocate(node_id, config),
    "withhold": lambda node_id, config, seed: Withhold(),
    "fabricate": lambda node_id, config, seed: FabricateHistory(node_id, config),
    "chaos": lambda node_id, config, seed: Chaos(node_id, config, seed=seed),
}

#: Grid order of the attack families.
ATTACK_NAMES = tuple(ATTACKS)
