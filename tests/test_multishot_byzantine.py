"""Byzantine behaviour in the multi-shot (pipelined) protocol.

Single-shot Byzantine coverage lives in test_byzantine.py; these
scenarios attack the chain layer specifically: equivocating *block*
proposals (two blocks for one slot), vote equivocation across forks,
and forged per-slot suggest/proof histories during slot view changes.
The asserted property is Definition 2 consistency: correct nodes'
finalized chains never fork, whatever the adversary does.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.adversary.faulty_engine import (
    Delivery,
    Deviation,
    FaultyEngine,
    Impostor,
    faulty_factory,
)
from repro.core import ProtocolConfig
from repro.eval.smr_bench import build_workload
from repro.metrics.smr_trackers import SMRTrackers
from repro.multishot import (
    Block,
    GENESIS_DIGEST,
    MSProposal,
    MSViewChange,
    MSVote,
    MultiShotConfig,
    MultiShotNode,
)
from repro.multishot.node import RETENTION_SLOTS
from repro.quorums.system import NodeId
from repro.sim import Simulation, SynchronousDelays, UniformRandomDelays
from repro.sim.network import DelayPolicy
from repro.sim.trace import TraceKind
from repro.smr import Replica, engine_factory
from repro.verification.audit import SafetyAuditor

#: The faulty replica of every scenario here (n=4).
FAULTY = 3


def assert_consistent(sim: Simulation, node_ids: list[int]) -> list[str]:
    chains = [[b.digest for b in sim.nodes[i].finalized_chain] for i in node_ids]
    reference = max(chains, key=len)
    for chain in chains:
        assert reference[: len(chain)] == chain, "finalized chains forked"
    return reference


def _run_multishot(
    config: MultiShotConfig, deviation: Deviation, policy: DelayPolicy, until: float
) -> Simulation:
    """An n=4 pipelined run whose node FAULTY is an honest
    :class:`MultiShotNode` corrupted by ``deviation``."""
    sim = Simulation(policy)
    sim.add_node(FaultyEngine(FAULTY, MultiShotNode(FAULTY, config), deviation))
    for i in range(3):
        sim.add_node(MultiShotNode(i, config))
    sim.run(until=until)
    return sim


class EquivocatingBlockProposer(Impostor):
    """When it would lead a slot, sends *different blocks* to each half
    of the network, and echoes every vote it hears for both forks."""

    def __init__(self, config: MultiShotConfig) -> None:
        self.config = config
        self.forks: dict[str, set[str]] = {"A": set(), "B": set()}
        self._proposed: set[tuple[int, int]] = set()
        self._parents: dict[int, str] = {0: GENESIS_DIGEST}

    def on_start(self) -> None:
        self._maybe_equivocate(1, 0, GENESIS_DIGEST)

    def _maybe_equivocate(self, slot: int, view: int, parent: str) -> None:
        if (slot, view) in self._proposed or self.config.leader_of(slot, view) != FAULTY:
            return
        self._proposed.add((slot, view))
        fork_a = Block.create(slot, parent, f"fork-A-{slot}-{view}")
        fork_b = Block.create(slot, parent, f"fork-B-{slot}-{view}")
        self.forks["A"].add(fork_a.digest)
        self.forks["B"].add(fork_b.digest)
        ids = self.config.base.node_ids
        half = len(ids) // 2
        deliveries = [(dst, MSProposal(slot, view, fork_a)) for dst in ids[:half]]
        deliveries += [(dst, MSProposal(slot, view, fork_b)) for dst in ids[half:]]
        self.engine._emit(deliveries)

    def hear(self, sender: NodeId, message: object) -> None:
        if sender == FAULTY:
            return  # our own loop-back: echoing it again would never end
        if isinstance(message, MSProposal):
            # Track lineage so later equivocations extend something real.
            self._parents[message.slot] = message.block.digest
            self._maybe_equivocate(message.slot + 1, message.view, message.block.digest)
        elif isinstance(message, MSVote):
            # Double-vote: echo the vote back to everyone (it is for
            # whichever fork the sender saw; we endorse both).
            self.engine._emit([(None, MSVote(message.slot, message.view, message.digest))])
        elif isinstance(message, MSViewChange):
            self.engine._emit([(None, message)])
            parent = self._parents.get(message.slot - 1, GENESIS_DIGEST)
            self._maybe_equivocate(message.slot, message.view, parent)


def _assert_both_forks_reached_honest_nodes(
    sim: Simulation, deviation: EquivocatingBlockProposer
) -> None:
    for fork, digests in deviation.forks.items():
        held = {d for i in (0, 1, 2) for d in digests if d in sim.nodes[i].store}
        assert held, f"no honest node holds a fork-{fork} block: the attack never landed"


class TestBlockEquivocation:
    @pytest.mark.parametrize("seed", range(6))
    def test_forked_proposals_never_fork_finalized_chains(self, seed):
        # The equivocator leads slots where (slot + view) % 4 == 3.
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=10)
        deviation = EquivocatingBlockProposer(config)
        sim = _run_multishot(config, deviation, UniformRandomDelays(0.3, 1.0, seed=seed), 400)
        _assert_both_forks_reached_honest_nodes(sim, deviation)
        reference = assert_consistent(sim, [0, 1, 2])
        # Progress despite the equivocator: the honest slots still chain.
        assert len(reference) >= 4

    def test_synchronous_split_cannot_notarize_both_forks(self):
        """With a clean 2/2 split of a 4-node system, neither fork can
        gather the 3-vote quorum from honest nodes alone, so slot 3
        (the equivocator's) only notarizes via a view-changed retry."""
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=8)
        deviation = EquivocatingBlockProposer(config)
        sim = _run_multishot(config, deviation, SynchronousDelays(1.0), 300)
        _assert_both_forks_reached_honest_nodes(sim, deviation)
        reference = assert_consistent(sim, [0, 1, 2])
        assert len(reference) >= 4
        # No two different digests finalized for any slot (stronger
        # restatement of consistency, per-slot).
        for i in (0, 1, 2):
            by_slot: dict[int, str] = {}
            for block in sim.nodes[i].finalized_chain:
                assert by_slot.setdefault(block.slot, block.digest) == block.digest


class ChainHavoc(Impostor):
    """Random multi-shot havoc: bogus votes for random digests/views,
    spurious view-change messages, and malformed proposals."""

    def __init__(self, config: MultiShotConfig, seed: int) -> None:
        self.config = config
        self._rng = random.Random(seed)
        self._digests: list[str] = [GENESIS_DIGEST]

    def on_start(self) -> None:
        self.engine.ctx.set_timer(1.0, self._tick)

    def hear(self, sender: NodeId, message: object) -> None:
        if isinstance(message, MSProposal):
            self._digests.append(message.block.digest)

    def _tick(self) -> None:
        if self.engine.now > 120:
            return
        rng = self._rng
        ids = self.config.base.node_ids
        for _ in range(4):
            kind = rng.randrange(3)
            slot = rng.randint(1, 10)
            view = rng.randint(0, 2)
            if kind == 0:
                dst = rng.choice(ids)
                self.engine._emit([(dst, MSVote(slot, view, rng.choice(self._digests)))])
            elif kind == 1:
                self.engine._emit([(None, MSViewChange(slot, max(view, 1)))])
            else:
                bogus = Block.create(slot, rng.choice(self._digests), ("junk", slot))
                self.engine._emit([(rng.choice(ids), MSProposal(slot, view, bogus))])
        self.engine.ctx.set_timer(1.0, self._tick)


class TestChainChaos:
    @pytest.mark.parametrize("seed", range(6))
    def test_chain_consistency_under_havoc(self, seed):
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=10)
        havoc = ChainHavoc(config, seed=seed)
        sim = _run_multishot(config, havoc, UniformRandomDelays(0.3, 1.0, seed=seed), 400)
        reference = assert_consistent(sim, [0, 1, 2])
        assert len(reference) >= 3, "honest chain made no progress under havoc"


# -- proposal guards: each strategy below is the scenario its guard needs ---


class OutOfTurnProposer(Deviation):
    """Proposes a block of its own for every view-0 slot it does not
    lead, on a valid parent: the moment it hears slot s-1's proposal it
    sends ``MSProposal(s, 0, B)`` to everyone."""

    def __init__(self) -> None:
        self.forged: set[str] = set()

    def on_start(self) -> None:
        self._propose(1, GENESIS_DIGEST)

    def inbound(self, sender: NodeId, message: object) -> bool:
        if isinstance(message, MSProposal) and message.view == 0:
            self._propose(message.slot + 1, message.block.digest)
        return True

    def _propose(self, slot: int, parent: str) -> None:
        config = self.engine.inner.config
        if slot > config.max_slots or config.leader_of(slot, 0) == FAULTY:
            return
        block = Block.create(slot, parent, ("out-of-turn", slot))
        if block.digest not in self.forged:
            self.forged.add(block.digest)
            self.engine._emit([(None, MSProposal(slot, 0, block))])


class MislabelledSlotProposer(Deviation):
    """Leads honestly except that every block it proposes for slot s
    claims slot s + 1."""

    def __init__(self) -> None:
        self.forged: set[str] = set()

    def outbound(self, dst: NodeId | None, message: object) -> list[Delivery]:
        if not isinstance(message, MSProposal):
            return [(dst, message)]
        block = message.block
        mislabelled = Block.create(block.slot + 1, block.parent, block.payload)
        self.forged.add(mislabelled.digest)
        return [(dst, MSProposal(message.slot, message.view, mislabelled))]


class FastFrom(DelayPolicy):
    """Messages from ``node`` take ``fast``, everyone else's ``slow``."""

    def __init__(self, node: NodeId, fast: float = 0.1, slow: float = 1.0) -> None:
        self.node, self.fast, self.slow = node, fast, slow

    def delay(self, send_time: float, src: int, dst: int, message: object) -> float | None:
        return self.fast if src == self.node else self.slow


class StaleSlotProposer(Deviation):
    """Runs honestly until the tip passes ``RETENTION_SLOTS + 6``, then
    proposes a conflicting view-0 block for the highest slot it leads
    below ``tip - RETENTION_SLOTS`` — a slot every honest replica has
    finalized and pruned — on that slot's finalized parent."""

    def __init__(self) -> None:
        self.forged: Block | None = None
        self.sent_at = math.inf

    def inbound(self, sender: NodeId, message: object) -> bool:
        chain = self.engine.finalized_chain
        if self.forged is None and len(chain) > RETENTION_SLOTS + 6:
            leader_of = self.engine.inner.config.leader_of
            slot = max(
                s for s in range(2, len(chain) - RETENTION_SLOTS) if leader_of(s, 0) == FAULTY
            )
            self.forged = Block.create(slot, chain[slot - 2].digest, ("stale", slot))
            self.sent_at = self.engine.now
            self.engine._emit([(None, MSProposal(slot, 0, self.forged))])
        return True


def _audited_run(deviation: Deviation, sim: Simulation, also=lambda: True):
    """30 txns through an n=4 SMR cluster on the pipelined engine (as in
    an A6 cell), replica FAULTY running ``deviation``, until they are
    applied and ``also()`` holds; returns the honest replicas and their
    audit."""
    base = ProtocolConfig.create(4)
    factory = faulty_factory(
        engine_factory("tetrabft", base, max_slots=63),
        lambda node_id: deviation,
        (FAULTY,),
    )
    trackers = SMRTrackers()
    replicas = [
        Replica(i, max_batch=10, trackers=trackers, engine_factory=factory) for i in range(4)
    ]
    sim.add_nodes(list(replicas))
    injected = build_workload("uniform", 30, 10, seed=0).inject(sim, replicas)
    honest = [replicas[i] for i in range(4) if i != FAULTY]
    ids = [replica.node_id for replica in honest]
    sim.run(
        until=300.0,
        stop_when=lambda: trackers.throughput.min_txns_applied(ids) >= injected and also(),
        stop_check_interval=64,
    )
    return honest, SafetyAuditor(expected_txns=injected).audit(honest)


class TestProposalGuards:
    def test_an_out_of_turn_proposal_is_never_finalized(self):
        """The leader check in ``_on_proposal``: a non-leader's block
        reaches every honest replica before the leader's does, yet none
        of them finalizes it, and the run stays safe and live."""
        deviation = OutOfTurnProposer()
        honest, report = _audited_run(deviation, Simulation(FastFrom(FAULTY)))
        assert len(deviation.forged) >= 3
        for replica in honest:
            assert not {b.digest for b in replica.finalized_chain} & deviation.forged
        assert report.safe and report.live, report.violations

    def test_a_block_labelled_with_another_slot_is_never_finalized(self):
        """The ``block.slot != slot`` check in ``_on_proposal``: the
        leader's blocks all claim the next slot, none is finalized, and
        every finalized block sits at the height its slot names."""
        deviation = MislabelledSlotProposer()
        honest, report = _audited_run(deviation, Simulation(SynchronousDelays(1.0)))
        assert deviation.forged
        for replica in honest:
            chain = replica.finalized_chain
            assert not {b.digest for b in chain} & deviation.forged
            assert [b.slot for b in chain] == list(range(1, len(chain) + 1))
        assert report.safe and report.live, report.violations

    def test_a_proposal_for_a_pruned_finalized_slot_gets_no_vote(self):
        """The stale-proposal guard (``slot <= finalized_height``) in
        ``_on_proposal``: the slot's leader proposes again for a slot
        every honest replica finalized and pruned long ago.  Without the
        guard each of them would vote for it — a second vote in a
        finalized slot; with it, none does."""
        deviation = StaleSlotProposer()
        sim = Simulation(SynchronousDelays(1.0), trace_enabled=True)
        honest, report = _audited_run(
            deviation, sim, also=lambda: sim.scheduler.now > deviation.sent_at + 3.0
        )
        assert deviation.forged is not None, "the chain never grew past the retention window"
        votes = [
            event
            for event in sim.trace.events(kind=TraceKind.VOTE)
            if event.node != FAULTY and event.get("value") == deviation.forged.digest
        ]
        assert votes == []
        for replica in honest:
            assert deviation.forged.digest not in {b.digest for b in replica.finalized_chain}
        assert report.safe and report.live, report.violations
