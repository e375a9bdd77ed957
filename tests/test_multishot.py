"""Tests for Multi-shot (pipelined) TetraBFT: blocks, chain, node."""

from __future__ import annotations

import gc
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import chained
from repro.core import ProtocolConfig
from repro.errors import ProtocolViolation
from repro.multishot import (
    Block,
    BlockStore,
    ChainState,
    GENESIS_DIGEST,
    MultiShotConfig,
    MultiShotNode,
)
from repro.multishot.chain import FINALITY_WINDOW
from repro.metrics.smr_trackers import SMRTrackers
from repro.multishot.messages import MSProof, MSProposal, MSSuggest, MSViewChange, MSVote
from repro.multishot.node import RETENTION_SLOTS, VIEW_CHANGE_LEAD
from repro.net.replica_main import _ObsNetContext
from repro.obs import EventLog, MetricsRegistry
from repro.sim import (
    PartialSynchronyPolicy,
    Simulation,
    SynchronousDelays,
    TargetedDropPolicy,
    TraceKind,
    silence_nodes,
)
from repro.sim.runner import NodeContext
from repro.smr import Replica
from repro.smr.mempool import Transaction
from repro.smr.engine import engine_factory
from repro.verification.audit import SafetyAuditor
from tests.conftest import FakeContext


def chain_digests(node: MultiShotNode) -> list[str]:
    return [b.digest for b in node.finalized_chain]


def assert_chains_consistent(sim: Simulation, node_ids: list[int]) -> None:
    chains = [chain_digests(sim.nodes[i]) for i in node_ids]
    reference = max(chains, key=len)
    for chain in chains:
        assert reference[: len(chain)] == chain, "finalized chains forked"


class TestBlock:
    def test_digest_depends_on_content(self):
        a = Block.create(1, GENESIS_DIGEST, "p1")
        b = Block.create(1, GENESIS_DIGEST, "p2")
        c = Block.create(2, GENESIS_DIGEST, "p1")
        assert len({a.digest, b.digest, c.digest}) == 3

    def test_digest_deterministic(self):
        assert (
            Block.create(1, GENESIS_DIGEST, "p").digest
            == Block.create(1, GENESIS_DIGEST, "p").digest
        )

    def test_a_supplied_digest_must_match_the_contents(self):
        """The digest names the body: a block built with another block's
        digest, or edited under its own, does not construct."""
        honest = Block.create(1, GENESIS_DIGEST, "p1")
        other = Block.create(1, GENESIS_DIGEST, "p2")
        assert Block(1, GENESIS_DIGEST, "p1", digest=honest.digest) == honest
        with pytest.raises(ValueError, match="does not match its contents"):
            Block(1, GENESIS_DIGEST, "p1", digest=other.digest)
        with pytest.raises(ValueError, match="does not match its contents"):
            replace(honest, payload="p2")
        with pytest.raises(ValueError, match="does not match its contents"):
            replace(honest, digest="f" * 16)



class _ScanStore:
    """The store before the slot index: keyed by digest only, pruned by
    a scan over every body it holds.  Reference for the differential
    test below."""

    def __init__(self) -> None:
        self._by_digest: dict[str, Block] = {}

    def add(self, block: Block) -> None:
        self._by_digest[block.digest] = block

    def get(self, digest: str) -> Block | None:
        return self._by_digest.get(digest)

    def __contains__(self, digest: str) -> bool:
        return digest in self._by_digest

    def __len__(self) -> int:
        return len(self._by_digest)

    def prune_below(self, slot: int, keep: set[str]) -> None:
        victims = [d for d, b in self._by_digest.items() if b.slot < slot and d not in keep]
        for digest in victims:
            del self._by_digest[digest]


#: Every body the differential test can add: 12 slots × 3 rival digests.
_UNIVERSE = {
    (slot, rival): Block.create(slot, "parent", f"rival-{rival}")
    for slot in range(12)
    for rival in range(3)
}

_STORE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 11), st.integers(0, 2)),
        # Advance the horizon by 0–3 slots; each slot crossing it
        # finalizes one of its rivals (3 = none of them).
        st.tuples(
            st.just("prune"),
            st.integers(0, 3),
            st.lists(st.integers(0, 3), min_size=3, max_size=3),
        ),
    ),
    max_size=40,
)


class TestBlockStore:
    def test_ancestor_walk(self):
        store = BlockStore()
        b1 = Block.create(1, GENESIS_DIGEST, "a")
        b2 = Block.create(2, b1.digest, "b")
        b3 = Block.create(3, b2.digest, "c")
        for block in (b1, b2, b3):
            store.add(block)
        assert store.ancestor_digest(b3.digest, 1) == b2.digest
        assert store.ancestor_digest(b3.digest, 3) == GENESIS_DIGEST
        assert store.ancestor_digest(b3.digest, 5) == GENESIS_DIGEST

    def test_missing_body_returns_none(self):
        store = BlockStore()
        b2 = Block.create(2, "unknown-parent", "b")
        store.add(b2)
        assert store.ancestor_digest(b2.digest, 2) is None
        assert store.chain_to_genesis(b2.digest) is None

    def test_chain_to_genesis_order(self):
        store = BlockStore()
        b1 = Block.create(1, GENESIS_DIGEST, "a")
        b2 = Block.create(2, b1.digest, "b")
        store.add(b1)
        store.add(b2)
        chain = store.chain_to_genesis(b2.digest)
        assert chain is not None
        assert [b.slot for b in chain] == [1, 2]

    def test_prune_keeps_exceptions(self):
        store = BlockStore()
        b1 = Block.create(1, GENESIS_DIGEST, "a")
        b2 = Block.create(2, b1.digest, "b")
        store.add(b1)
        store.add(b2)
        store.prune_below(3, keep={b2.digest})
        assert b2.digest in store
        assert b1.digest not in store

    def test_prune_visits_each_body_once(self):
        store = BlockStore()
        kept = Block.create(1, GENESIS_DIGEST, "kept")
        rival = Block.create(1, GENESIS_DIGEST, "rival")
        ahead = Block.create(5, kept.digest, "ahead")
        for block in (kept, rival, kept, ahead):  # a duplicate add indexes once
            store.add(block)
        assert store.slots_below(9) == [1, 5]
        store.prune_below(3, keep={kept.digest})
        assert kept.digest in store and rival.digest not in store
        # The survivor left the index, and re-adding it does not re-enter it.
        store.add(kept)
        assert store.slots_below(9) == [5]
        # A body arriving for a slot already below the horizon goes at
        # the next call, whatever the horizon does.
        store.add(rival)
        store.prune_below(3, keep=set())
        assert rival.digest not in store
        assert kept.digest in store and ahead.digest in store

    @settings(max_examples=300, deadline=None)
    @given(ops=_STORE_OPS)
    def test_indexed_prune_matches_full_scan(self, ops):
        """Driven the way the engines drive it — the slots being dropped
        name the finalized digests to keep — the indexed store holds the
        same bodies after every step as a scan told every finalized
        digest, as the node's ``_prune`` told it before the index."""
        indexed, scan = BlockStore(), _ScanStore()
        horizon = 0
        finalized: dict[int, str] = {}
        for op in ops:
            if op[0] == "add":
                block = _UNIVERSE[op[1], op[2]]
                indexed.add(block)
                scan.add(block)
            else:
                _, advance, picks = op
                for slot, rival in zip(range(horizon, horizon + advance), picks):
                    block = _UNIVERSE.get((slot, rival))  # none for rival 3
                    if block is not None:
                        finalized[slot] = block.digest
                horizon += advance
                indexed.prune_below(
                    horizon, {finalized.get(slot) for slot in indexed.slots_below(horizon)}
                )
                scan.prune_below(horizon, set(finalized.values()))
            assert len(indexed) == len(scan)
            for block in _UNIVERSE.values():
                assert (block.digest in indexed) == (block.digest in scan)
                assert indexed.get(block.digest) == scan.get(block.digest)


class TestChainState:
    def _linked_blocks(self, count: int) -> list[Block]:
        blocks, parent = [], GENESIS_DIGEST
        for slot in range(1, count + 1):
            block = Block.create(slot, parent, f"p{slot}")
            blocks.append(block)
            parent = block.digest
        return blocks

    def test_four_consecutive_notarizations_finalize_first(self):
        store = BlockStore()
        chain = ChainState(store)
        blocks = self._linked_blocks(4)
        for block in blocks:
            store.add(block)
        for block in blocks[:3]:
            assert chain.notarize(block.slot, block.digest) == []
        newly = chain.notarize(4, blocks[3].digest)
        assert [b.slot for b in newly] == [1]
        assert chain.finalized_height == 1

    def test_prefix_finalizes_with_window(self):
        store = BlockStore()
        chain = ChainState(store)
        blocks = self._linked_blocks(6)
        for block in blocks:
            store.add(block)
        for block in blocks:
            chain.notarize(block.slot, block.digest)
        assert chain.finalized_height == 3  # slots 1..3 (6 - window + 1)

    def test_unlinked_notarizations_do_not_finalize(self):
        store = BlockStore()
        chain = ChainState(store)
        blocks = self._linked_blocks(3)
        stray = Block.create(4, "somewhere-else", "stray")
        for block in blocks + [stray]:
            store.add(block)
        for block in blocks:
            chain.notarize(block.slot, block.digest)
        assert chain.notarize(4, stray.digest) == []
        assert chain.finalized_height == 0

    def test_late_body_completes_finalization(self):
        store = BlockStore()
        chain = ChainState(store)
        blocks = self._linked_blocks(4)
        for block in blocks:
            if block.slot != 2:
                store.add(block)
        for block in blocks:
            chain.notarize(block.slot, block.digest)
        assert chain.finalized_height == 0  # body for slot 2 missing
        store.add(blocks[1])
        newly = chain.check_finalization()
        assert [b.slot for b in newly] == [1]

    def test_fork_in_finalized_chain_raises(self):
        store = BlockStore()
        chain = ChainState(store)
        honest = self._linked_blocks(4)
        for block in honest:
            store.add(block)
            chain.notarize(block.slot, block.digest)
        assert chain.finalized_height == 1
        # A conflicting fully-notarized run at the same slots.
        evil = []
        parent = GENESIS_DIGEST
        for slot in range(1, 5):
            block = Block.create(slot, parent, f"evil{slot}")
            evil.append(block)
            store.add(block)
            parent = block.digest
        with pytest.raises(ProtocolViolation, match="fork"):
            for block in evil:
                chain.notarize(block.slot, block.digest)

    def test_genesis_is_notarized_at_slot_zero(self):
        chain = ChainState(BlockStore())
        assert chain.is_notarized(0, GENESIS_DIGEST)
        assert not chain.is_notarized(0, "other")

    def test_finalized_slot_index_answers_notarization_queries(self):
        """Finalized blocks stay notarized via the slot index — even
        after the raw notarization sets for their slots are pruned."""
        store = BlockStore()
        chain = ChainState(store)
        blocks = self._linked_blocks(8)
        for block in blocks:
            store.add(block)
            chain.notarize(block.slot, block.digest)
        assert chain.finalized_height == 5
        for block in blocks[:5]:
            assert chain.is_notarized(block.slot, block.digest)
        chain.prune_below(5)
        for block in blocks[:5]:
            assert chain.is_notarized(block.slot, block.digest)
            assert not chain.is_notarized(block.slot, "someone-else")
        assert chain.notarized_digests(2) == set()  # raw set pruned

    def test_finalization_appends_suffix_not_rebuild(self):
        """Finalizing more blocks extends the same list object (the
        incremental path) instead of replacing it wholesale."""
        store = BlockStore()
        chain = ChainState(store)
        blocks = self._linked_blocks(7)
        for block in blocks:
            store.add(block)
        for block in blocks[:4]:
            chain.notarize(block.slot, block.digest)
        finalized_list = chain.finalized
        assert [b.slot for b in finalized_list] == [1]
        for block in blocks[4:]:
            chain.notarize(block.slot, block.digest)
        assert chain.finalized is finalized_list
        assert [b.slot for b in finalized_list] == [1, 2, 3, 4]

    def test_notarization_gap_above_frontier_is_harmless(self):
        """A notarization far above the frontier (its ancestors'
        notarizations missing) finalizes nothing and later catches up."""
        store = BlockStore()
        chain = ChainState(store)
        blocks = self._linked_blocks(9)
        for block in blocks:
            store.add(block)
        assert chain.notarize(9, blocks[8].digest) == []
        for block in blocks[:8]:
            chain.notarize(block.slot, block.digest)
        # With the gap filled, the full prefix finalizes: 9 - 3 = 6.
        assert chain.finalized_height == 6

    def test_stale_low_notarization_after_finalization_is_ignored(self):
        store = BlockStore()
        chain = ChainState(store)
        blocks = self._linked_blocks(6)
        for block in blocks:
            store.add(block)
            chain.notarize(block.slot, block.digest)
        assert chain.finalized_height == 3
        # Re-notarizing an already-final slot's digest adds nothing.
        assert chain.notarize(1, blocks[0].digest) == []
        assert chain.finalized_height == 3


class TestMultiShotGoodCase:
    def test_one_block_per_delay(self):
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=18)
        sim = Simulation(SynchronousDelays(1.0), trace_enabled=True)
        for i in range(4):
            sim.add_node(MultiShotNode(i, config))
        sim.run(until=40)
        events = sim.trace.events(TraceKind.FINALIZE, node=0)
        times = [e.time for e in events]
        assert times[0] == 5.0
        assert all(b - a == 1.0 for a, b in zip(times, times[1:]))

    def test_all_nodes_finalize_everything_finalizable(self):
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=15)
        sim = Simulation(SynchronousDelays(1.0))
        for i in range(4):
            sim.add_node(MultiShotNode(i, config))
        sim.run(until=50)
        for i in range(4):
            assert len(sim.nodes[i].finalized_chain) == 12  # 15 - 3 tail
        assert_chains_consistent(sim, [0, 1, 2, 3])

    def test_chain_links_are_intact(self):
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=10)
        sim = Simulation(SynchronousDelays(1.0))
        for i in range(4):
            sim.add_node(MultiShotNode(i, config))
        sim.run(until=40)
        chain = sim.nodes[0].finalized_chain
        parent = GENESIS_DIGEST
        for slot, block in enumerate(chain, start=1):
            assert block.slot == slot
            assert block.parent == parent
            parent = block.digest

    def test_seven_node_pipeline(self):
        config = MultiShotConfig(base=ProtocolConfig.create(7), max_slots=12)
        sim = Simulation(SynchronousDelays(1.0))
        for i in range(7):
            sim.add_node(MultiShotNode(i, config))
        sim.run(until=40)
        assert len(sim.nodes[0].finalized_chain) == 9
        assert_chains_consistent(sim, list(range(7)))

    def test_state_pruning_bounds_memory(self):
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=40)
        sim = Simulation(SynchronousDelays(1.0))
        for i in range(4):
            sim.add_node(MultiShotNode(i, config))
        sim.run(until=80)
        node = sim.nodes[0]
        assert len(node.finalized_chain) == 37
        # Per-slot working state far behind the tip was pruned.
        assert len(node.slots) <= 40 - 37 + 8 + 4


def _lines_executed(work: Callable[[], object]) -> int:
    """How many Python line events ``work()`` runs: a count of the work
    done, exact where a clock would be noisy.  The cyclic collector is
    off meanwhile, so that no finalizer of garbage other code left runs
    inside the count."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.settrace(tracer)
    try:
        work()
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return count


#: Slots an engine may hold working state for: the retention tail
#: behind the finalized tip, the notarized-but-unfinal run above it,
#: and the two slots already started beyond that.
_WINDOW = RETENTION_SLOTS + FINALITY_WINDOW + 2


class TestWorkingStateIsAWindow:
    """Work and working state per finalized slot do not grow with the
    chain (§6: constant storage, one block per delay — for as long as
    the node stays up)."""

    SLOTS, CHUNK = 1600, 100

    @pytest.fixture(scope="class")
    def long_run(self):
        """1,600 good-case slots on a bare engine, and the Python lines
        executed over an early and a late 100-slot chunk."""
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=self.SLOTS + 100)
        sim = Simulation(SynchronousDelays(1.0))
        for i in range(4):
            sim.add_node(MultiShotNode(i, config))
        counted = (2 * self.CHUNK, self.SLOTS)
        lines = []
        for end in range(self.CHUNK, self.SLOTS + 1, self.CHUNK):
            # Slot s finalizes at s + 4.
            run = partial(sim.run, until=end + FINALITY_WINDOW + 1)
            if end in counted:
                lines.append(_lines_executed(run))
            else:
                run()
        return sim.nodes[0], lines

    def test_per_slot_cost_is_flat(self, long_run):
        # The good case repeats the same work every slot, so the count is
        # equal.  Work that grows with the chain shows late: a `_prune`
        # that scans the whole block store on each finalization reads 3.8x.
        _, (early, late) = long_run
        assert late == early

    def test_multishot_state_is_a_window(self, long_run):
        node, _ = long_run
        tip = node.chain.finalized_height
        assert tip >= self.SLOTS
        assert len(node.slots) <= _WINDOW
        live = set(range(tip - RETENTION_SLOTS, tip - RETENTION_SLOTS + _WINDOW))
        every_slot = node.config.max_slots + 1
        notarized = {s for s in range(1, every_slot) if node.chain.notarized_digests(s)}
        assert notarized <= live
        indexed = node.store.slots_below(every_slot)
        assert set(indexed) <= live
        # Finalized bodies stay (the ledger); beside them only the
        # unfinalized tail, one body per slot in the good case.
        assert len(node.store) == tip + sum(1 for s in indexed if s > tip)

    def test_chained_engine_state_is_a_window(self):
        factory = engine_factory("pbft", ProtocolConfig.create(4))
        sim = Simulation(SynchronousDelays(1.0))
        replicas = [Replica(i, max_batch=4, engine_factory=factory) for i in range(4)]
        sim.add_nodes(list(replicas))
        engine = replicas[0].consensus
        sim.run(until=1e6, stop_when=lambda: len(engine.finalized) >= 600, stop_check_interval=16)
        tip = len(engine.finalized)
        assert tip >= 600
        indexed = engine.store.slots_below(tip + 2)
        assert len(indexed) <= chained.RETENTION_SLOTS + 1  # + the active slot
        assert min(indexed) >= tip - chained.RETENTION_SLOTS
        assert len(engine.store) == tip + sum(1 for s in indexed if s > tip)

    def test_chained_engine_storage_report_is_flat(self):
        """A chained baseline reports its slot instance's state, not the
        ledger: a node's distinct reported sizes do not grow with the
        chain from 100 slots to 400."""
        factory = engine_factory("pbft", ProtocolConfig.create(4))
        sim = Simulation(SynchronousDelays(1.0))
        replicas = [Replica(i, max_batch=4, engine_factory=factory) for i in range(4)]
        sim.add_nodes(list(replicas))
        engine = replicas[0].consensus
        distinct = []
        for target in (100, 400):
            sim.run(until=1e6, stop_when=lambda: len(engine.finalized) >= target)
            distinct.append(len(sim.metrics.storage.sizes[0]))
        assert distinct[0] == distinct[1] > 0


class TestMultiShotViewChange:
    def test_crashed_slot_leader_recovery(self):
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=12)
        policy = TargetedDropPolicy(SynchronousDelays(1.0), silence_nodes([3]), end=25.0)
        sim = Simulation(policy)
        for i in range(4):
            sim.add_node(MultiShotNode(i, config))
        sim.run(until=200)
        for i in range(4):
            assert len(sim.nodes[i].finalized_chain) == 9
        assert_chains_consistent(sim, [0, 1, 2, 3])

    def test_permanently_crashed_node_still_progresses(self):
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=12)
        policy = TargetedDropPolicy(SynchronousDelays(1.0), silence_nodes([3]))
        sim = Simulation(policy)
        for i in range(4):
            sim.add_node(MultiShotNode(i, config))
        sim.run(until=300)
        for i in range(3):
            assert len(sim.nodes[i].finalized_chain) == 9
        assert_chains_consistent(sim, [0, 1, 2])

    def test_asynchrony_then_multishot_consistency(self):
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=10)
        for seed in range(6):
            policy = PartialSynchronyPolicy(gst=20.0, delta=1.0, loss_before_gst=0.6, seed=seed)
            sim = Simulation(policy)
            for i in range(4):
                sim.add_node(MultiShotNode(i, config))
            sim.run(until=600)
            assert_chains_consistent(sim, [0, 1, 2, 3])
            heights = [len(sim.nodes[i].finalized_chain) for i in range(4)]
            assert max(heights) >= 5, f"seed {seed}: no progress after GST {heights}"

    def test_unstarted_slots_default_to_view_zero(self):
        """Figure 3's slot-4 behaviour: slots first started after a view
        change still begin at view 0."""
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=12)
        policy = TargetedDropPolicy(SynchronousDelays(1.0), silence_nodes([3]), end=25.0)
        sim = Simulation(policy, trace_enabled=True)
        for i in range(4):
            sim.add_node(MultiShotNode(i, config))
        sim.run(until=200)
        view0_notarizations = {
            int(e.get("slot"))
            for e in sim.trace.events(TraceKind.NOTARIZE, node=0)
            if e.get("view") == 0
        }
        # Slots beyond the aborted window were notarized at view 0.
        assert any(slot > 5 for slot in view0_notarizations)

    def test_finalize_callback_invoked_in_order(self):
        received: list[int] = []
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=8)
        sim = Simulation(SynchronousDelays(1.0))
        sim.add_node(MultiShotNode(0, config, on_finalize=lambda b: received.append(b.slot)))
        for i in range(1, 4):
            sim.add_node(MultiShotNode(i, config))
        sim.run(until=30)
        assert received == sorted(received)
        assert received[0] == 1


class TestVotePathExactness:
    """What the vote and slot paths skip changes no outcome
    (``multishot/node.py``, "Exactness of the vote and slot paths")."""

    def test_a_late_body_finalizes_its_slot_on_arrival(self):
        """Node 0 of n=7 (quorum 5) hears six votes each for slots 1–4
        and the bodies of 2–4, but slot 1's proposal only after all four
        are notarized: that arrival finalizes slot 1.  Each slot is
        notarized once, however many votes arrive past the quorum."""
        ctx = FakeContext(0)
        node = MultiShotNode(0, MultiShotConfig(base=ProtocolConfig.create(7), max_slots=12))
        node.start(ctx)
        blocks, parent = [], GENESIS_DIGEST
        for slot in range(1, 5):
            blocks.append(Block.create(slot, parent, f"late{slot}"))
            parent = blocks[-1].digest
        for block in blocks[1:]:
            node.receive(block.slot, MSProposal(block.slot, 0, block))  # leader: node `slot`
        for block in blocks:
            for voter in range(1, 7):
                node.receive(voter, MSVote(block.slot, 0, block.digest))
        notarized = [d for k, d in ctx.trace_events if k is TraceKind.NOTARIZE]
        assert [(d["slot"], d["value"]) for d in notarized] == [(b.slot, b.digest) for b in blocks]
        assert node.chain.max_notarized_slot == 4
        assert node.chain.finalized_height == 0  # slot 1's body is missing
        assert not [k for k, _ in ctx.trace_events if k is TraceKind.FINALIZE]
        node.receive(1, MSProposal(1, 0, blocks[0]))
        assert node.chain.finalized_height == 1
        finalized = [d for k, d in ctx.trace_events if k is TraceKind.FINALIZE]
        assert finalized == [{"slot": 1, "value": blocks[0].digest}]

    @pytest.mark.parametrize("slot", [0, -5])
    def test_suggest_and_proof_below_slot_one_allocate_nothing(self, slot):
        """No slot state for a slot no block can occupy: like votes and
        view changes, a suggest or proof for it is dropped on arrival."""
        node = MultiShotNode(0, MultiShotConfig(base=ProtocolConfig.create(4), max_slots=12))
        node.start(FakeContext(0))
        before = dict(node.slots)
        node.receive(1, MSSuggest(slot, 0))
        node.receive(1, MSProof(slot, 0))
        node.receive(2, MSSuggest(slot, 1))
        node.receive(2, MSProof(slot, 1))
        assert node.slots == before

    def test_reported_storage_is_the_sum_over_retained_slots(self, monkeypatch):
        """Through a view change, every storage report equals the sum of
        the retained slots' ``VoteStorage.size_bytes()``."""
        reports: list[tuple[int, int]] = []
        report = NodeContext.report_storage

        def checked(ctx, size_bytes):
            node = ctx._sim.nodes[ctx.node_id]
            reports.append((size_bytes, sum(s.storage.size_bytes() for s in node.slots.values())))
            report(ctx, size_bytes)

        monkeypatch.setattr(NodeContext, "report_storage", checked)
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=12)
        policy = TargetedDropPolicy(SynchronousDelays(1.0), silence_nodes([3]), end=25.0)
        sim = Simulation(policy, trace_enabled=True)
        for i in range(4):
            sim.add_node(MultiShotNode(i, config))
        sim.run(until=200)
        assert any(e.get("view", 0) >= 1 for e in sim.trace.events(TraceKind.VIEW_ENTER))
        assert len(reports) > 40
        assert [size for size, _ in reports] == [total for _, total in reports]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_skipping_the_check_above_the_notarized_frontier_changes_no_trace(
        self, seed, monkeypatch
    ):
        """Lossy asynchrony (lost proposals, view changes): the same run
        with the finalization check forced after every proposal leaves
        the same trace, event for event."""
        checks = []
        check = ChainState.check_finalization

        def counted(chain):
            checks.append(1)
            return check(chain)

        monkeypatch.setattr(ChainState, "check_finalization", counted)

        def run() -> tuple[list, int]:
            checks.clear()
            return list(self._lossy_run(seed).trace), len(checks)

        trace, skipping = run()
        monkeypatch.setattr(ChainState, "max_notarized_slot", property(lambda chain: 1 << 62))
        forced_trace, forced = run()
        assert trace == forced_trace
        assert skipping < forced

    @staticmethod
    def _lossy_run(seed: int) -> Simulation:
        """Lost proposals and view changes before GST, n=4."""
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=10)
        policy = PartialSynchronyPolicy(gst=20.0, delta=1.0, loss_before_gst=0.4, seed=seed)
        sim = Simulation(policy, trace_enabled=True)
        for i in range(4):
            sim.add_node(MultiShotNode(i, config))
        sim.run(until=400)
        assert any(e.get("view", 0) >= 1 for e in sim.trace.events(TraceKind.VIEW_ENTER))
        assert max(len(sim.nodes[i].finalized_chain) for i in range(4)) >= 5
        return sim

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_slot_at_or_below_the_tip_holds_a_timer(self, seed, monkeypatch):
        """Why a finalization cancels only the timers of the slots it
        finalizes: after every finalization, through view changes, no
        retained slot at or below the tip holds a timer."""
        handle = MultiShotNode._handle_finalized
        finalizations = []

        def checked(node, blocks):
            handle(node, blocks)
            tip = node.chain.finalized_height
            held = [slot for slot, state in node.slots.items() if slot <= tip and state.timer]
            assert not held, (tip, held)
            finalizations.append(len(blocks))

        monkeypatch.setattr(MultiShotNode, "_handle_finalized", checked)
        self._lossy_run(seed)
        assert sum(finalizations) >= 20

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_run_that_finalized_the_tip_appends_nothing_again(self, seed, monkeypatch):
        """Why the finalization scan skips the run that finalized the
        tip: walked again after every scan, through view changes, it
        returns nothing and leaves the chain as it was."""
        check = ChainState.check_finalization
        retried = []

        def checked(chain):
            newly = check(chain)
            top = chain._tip_run_top
            if top is not None:
                before = list(chain.finalized)
                slot = chain.finalized_height + FINALITY_WINDOW - 1
                assert chain._try_finalize_run(slot, top) == []
                assert chain.finalized == before
                retried.append(slot)
            return newly

        monkeypatch.setattr(ChainState, "check_finalization", checked)
        self._lossy_run(seed)
        assert len(retried) >= 20


class _PeerLossContext(FakeContext):
    """A FakeContext that, like the deployed transport's, can tell
    which peers' connections are lost."""

    def __init__(self, node_id: int = 0) -> None:
        super().__init__(node_id)
        self.lost: set[int] = set()

    def peer_lost(self, peer: int) -> bool:
        return peer in self.lost


def _live_timers(ctx: FakeContext) -> list:
    return [timer for timer in ctx.timers if not timer.cancelled]


class TestLeaderLostTimers:
    """A slot whose current-view leader is a lost peer times out at
    once, at most once per (slot, view); n=4, so the leader of
    ``(slot, view)`` is node ``(slot + view) % 4``."""

    TIMEOUT = ProtocolConfig.create(4).view_timeout

    @staticmethod
    def _start(ctx: FakeContext) -> MultiShotNode:
        node = MultiShotNode(0, MultiShotConfig(base=ProtocolConfig.create(4), max_slots=12))
        node.start(ctx)
        return node

    def test_a_lost_leader_gets_one_early_timeout_per_slot_and_view(self):
        ctx = _PeerLossContext()
        ctx.lost = {1, 2}  # slot 1's leaders at views 0 and 1
        node = self._start(ctx)
        [timer] = _live_timers(ctx)
        assert timer.deadline == 0
        # Starting slot 1 looks ahead: slot 2's view-0 leader (2) is lost.
        assert ctx.messages_of(MSViewChange) == [MSViewChange(2, 1)]
        assert ctx.fire_timers() == 1
        assert ctx.messages_of(MSViewChange) == [MSViewChange(2, 1), MSViewChange(1, 1)]
        assert (TraceKind.TIMER, {"slot": 1, "view": 0, "leader_lost": True}) in ctx.trace_events
        # The timer re-armed after the early timeout runs the full 9Δ,
        # and another loss notice for the same leader changes nothing:
        # no busy loop of view-change broadcasts.
        node.on_peer_lost(1)
        [timer] = _live_timers(ctx)
        assert timer.deadline == self.TIMEOUT
        assert ctx.fire_timers() == 0
        # A quorum moves slot 1 to view 1, whose leader (2) is lost too:
        # that view gets its own single early timeout.
        for sender in (1, 2, 3):
            node.receive(sender, MSViewChange(1, 1))
        assert node.slots[1].view == 1
        [timer] = _live_timers(ctx)
        assert timer.deadline == 0
        assert ctx.fire_timers() == 1
        assert ctx.messages_of(MSViewChange)[-1] == MSViewChange(1, 2)
        [timer] = _live_timers(ctx)
        assert timer.deadline == self.TIMEOUT

    def test_a_peer_lost_mid_slot_rearms_exactly_the_slots_it_leads(self):
        ctx = _PeerLossContext()
        node = self._start(ctx)
        parent = GENESIS_DIGEST
        for slot in (1, 2, 3):  # each leader's proposal starts the next slot
            block = Block.create(slot, parent, f"p{slot}")
            node.receive(slot % 4, MSProposal(slot, 0, block))
            parent = block.digest
        assert sorted(s for s, state in node.slots.items() if state.started) == [1, 2, 3, 4]
        assert [t.deadline for t in _live_timers(ctx)] == [self.TIMEOUT] * 4
        ctx.lost.add(2)
        node.on_peer_lost(2)
        assert sorted(t.deadline for t in _live_timers(ctx)) == [0] + [self.TIMEOUT] * 3
        # The loss also looks ahead from slot 4: of slots 5–7, peer 2 leads 6.
        assert ctx.messages_of(MSViewChange) == [MSViewChange(6, 1)]
        assert ctx.fire_timers() == 1
        assert ctx.messages_of(MSViewChange) == [MSViewChange(6, 1), MSViewChange(2, 1)]

    def test_a_context_without_peer_lost_keeps_the_full_timer(self):
        ctx = FakeContext(0)
        node = self._start(ctx)
        node.on_peer_lost(1)
        [timer] = _live_timers(ctx)
        assert timer.deadline == self.TIMEOUT
        assert ctx.fire_timers() == 0


def _proposal(slot: int, payload: str = "p") -> MSProposal:
    """Slot ``slot``'s view-0 proposal (n=4: from node ``slot % 4``)."""
    return MSProposal(slot, 0, Block.create(slot, GENESIS_DIGEST, f"{payload}{slot}"))


class TestLookaheadViewChange:
    """Starting a slot asks to leave the view of each unstarted slot
    within ``VIEW_CHANGE_LEAD`` whose leader is lost, once per (slot,
    view); a quorum moves the slot it names even before it starts."""

    TIMEOUT = ProtocolConfig.create(4).view_timeout

    @staticmethod
    def _start(ctx: FakeContext) -> MultiShotNode:
        node = MultiShotNode(0, MultiShotConfig(base=ProtocolConfig.create(4), max_slots=12))
        node.start(ctx)
        return node

    def test_asks_once_per_slot_and_view_for_unstarted_slots_within_the_lead(self):
        assert VIEW_CHANGE_LEAD == 3  # the slot numbers below count on it
        ctx = _PeerLossContext()
        ctx.lost = {2}
        node = self._start(ctx)
        # Slot 1 starts; of slots 2–4 peer 2 leads slot 2, and slot 6
        # (peer 2's next) lies past the lead.
        assert ctx.messages_of(MSViewChange) == [MSViewChange(2, 1)]
        assert (TraceKind.TIMER, {"slot": 2, "view": 0, "leader_lost": True}) in ctx.trace_events
        assert sorted(node.slots) == [1, 2], "state allocated for a slot whose leader is alive"
        node.on_peer_lost(2)
        node.receive(1, _proposal(1))  # starts slot 2: asked already, so its timer is 9Δ
        assert ctx.messages_of(MSViewChange) == [MSViewChange(2, 1)]
        assert node.slots[2].started
        assert sorted(t.deadline for t in _live_timers(ctx)) == [self.TIMEOUT] * 2
        node.receive(3, _proposal(3))  # starts slot 4: of 5–7, peer 2 leads 6
        assert ctx.messages_of(MSViewChange) == [MSViewChange(2, 1), MSViewChange(6, 1)]
        node.receive(1, _proposal(5))  # starts slot 6, already asked: nothing new
        node.on_peer_lost(2)
        assert ctx.messages_of(MSViewChange) == [MSViewChange(2, 1), MSViewChange(6, 1)]
        assert 3 not in node.slots or not node.slots[3].started

    def test_a_context_without_peer_lost_looks_nowhere_ahead(self):
        ctx = FakeContext(0)
        node = self._start(ctx)
        node.receive(1, _proposal(1))
        node.receive(3, _proposal(3))
        node.on_peer_lost(2)
        assert ctx.messages_of(MSViewChange) == []
        assert [t.deadline for t in _live_timers(ctx)] == [self.TIMEOUT] * 3

    def test_a_quorum_moves_an_unstarted_slot_alone_and_arms_it_when_it_starts(self):
        ctx = FakeContext(0)
        node = self._start(ctx)
        for sender in (1, 2, 3):
            node.receive(sender, MSViewChange(2, 1))
        # Slot 2 has not started, yet it is in view 1: it sent its proof
        # to all and its suggest to the view-1 leader (node 3).  Slot 1
        # and the slots above are untouched.
        assert not node.slots[2].started
        assert node.slots[2].view == 1 and node.slots[1].view == 0
        assert 3 not in node.slots
        assert [(m.slot, m.view) for m in ctx.messages_of(MSProof)] == [(2, 1)]
        assert [(dst, m.slot, m.view) for dst, m in ctx.sent if isinstance(m, MSSuggest)] == [
            (3, 2, 1)
        ]
        assert [t.deadline for t in _live_timers(ctx)] == [self.TIMEOUT], "timer armed early"
        ctx.advance(5.0)
        node.receive(1, _proposal(1))  # starts slot 2, in view 1, with a full 9Δ timer
        assert node.slots[2].started and node.slots[2].view == 1
        assert sorted(t.deadline for t in _live_timers(ctx)) == [self.TIMEOUT, 5.0 + self.TIMEOUT]
        entries = [d for k, d in ctx.trace_events if k is TraceKind.VIEW_ENTER and d["slot"] == 2]
        assert entries == [{"slot": 2, "view": 1}]
        node.receive(2, _proposal(2))  # slot 3 still begins at view 0
        assert node.slots[3].started and node.slots[3].view == 0

    def test_the_early_view_entry_is_counted_once(self):
        registry = MetricsRegistry()
        obs = _ObsNetContext(0, None, 0.05, registry, EventLog(replica=0))
        ctx = FakeContext(0)
        node = self._start(ctx)
        for sender in (1, 2, 3):
            node.receive(sender, MSViewChange(2, 1))
        node.receive(1, _proposal(1))
        for kind, detail in ctx.trace_events:
            obs.trace(kind, **detail)
        assert registry.snapshot()["consensus.view_changes"] == 1


class _PeerLossNodeContext(NodeContext):
    """The simulator's context plus the deployed transport's
    ``peer_lost``, answered from ``lost``."""

    __slots__ = ("lost",)

    def __init__(self, node_id: int, simulation: Simulation) -> None:
        super().__init__(node_id, simulation)
        self.lost: set[int] = set()

    def peer_lost(self, peer: int) -> bool:
        return peer in self.lost


class _PeerLossSimulation(Simulation):
    def start(self) -> None:
        self._started = True
        self.contexts = {}
        for node_id in sorted(self.nodes):
            self.contexts[node_id] = _PeerLossNodeContext(node_id, self)
            self.nodes[node_id].start(self.contexts[node_id])


@dataclass
class _CommitTimes(SMRTrackers):
    commits: dict[str, list[float]] = field(default_factory=dict)

    def record_commit(self, node: int, txid: str, time: float) -> None:
        self.commits.setdefault(txid, []).append(time)


class TestLeaderOutageLatency:
    """n=4, Δ=1: node 1 falls silent for 50Δ while a request is due
    every 0.5Δ.  Survivors that see its connection lost move its slots
    to view 1 before they start, so the outage's requests commit as
    fast as the good case's (f+1 commits 5.5Δ after submission), even
    with one survivor blind to the loss."""

    DOWN, UP = 10.0, 60.0

    def _run(self, blind: set[int]) -> tuple[int, list[Replica]]:
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=200)
        policy = TargetedDropPolicy(
            SynchronousDelays(1.0), silence_nodes([1]), start=self.DOWN, end=self.UP
        )
        sim = _PeerLossSimulation(policy)
        trackers = _CommitTimes()
        replicas = [Replica(i, config, max_batch=10, trackers=trackers) for i in range(4)]
        sim.add_nodes(replicas)
        seeing = [r for r in replicas if r.node_id != 1 and r.node_id not in blind]

        def lose() -> None:
            for replica in seeing:
                sim.contexts[replica.node_id].lost.add(1)
                replica.consensus.on_peer_lost(1)

        def reconnect() -> None:
            for replica in seeing:
                sim.contexts[replica.node_id].lost.discard(1)

        sim.scheduler.schedule(self.DOWN, lose)
        sim.scheduler.schedule(self.UP, reconnect)
        due: dict[str, float] = {}
        for k in range(100):
            txn = Transaction(f"t{k}", ("incr", f"c{k % 5}", 1))
            due[txn.txid] = self.DOWN + 0.5 * k
            sim.scheduler.schedule(due[txn.txid], lambda txn=txn: [r.submit(txn) for r in replicas])
        sim.run(until=90.0)
        fast = sum(
            1
            for txid, submitted in due.items()
            if len(trackers.commits.get(txid, ())) >= 2
            and sorted(trackers.commits[txid])[1] - submitted <= 5.5
        )
        assert SafetyAuditor(expected_txns=100).audit(replicas).ok
        assert len({r.state_digest() for r in replicas}) == 1
        return fast, replicas

    def test_every_survivor_sees_the_loss(self):
        fast, _ = self._run(blind=set())
        assert fast >= 90, f"only {fast} of 100 outage requests committed within 5.5Δ"

    def test_one_survivor_is_blind_to_the_loss(self):
        fast, _ = self._run(blind={3})
        assert fast >= 85, f"only {fast} of 100 outage requests committed within 5.5Δ"
