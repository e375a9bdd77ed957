"""Tests for the SMR layer: mempool, KV store, and full replicas."""

from __future__ import annotations

import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProtocolConfig
from repro.multishot import MultiShotConfig
from repro.core.values import Phase
from repro.gateway.service import GatewayConfig, GatewayService
from repro.multishot.block import GENESIS_DIGEST, Block, BlockStore
from repro.multishot.messages import MSProposal
from repro.net.codec import WIRE_CODEC, ClientSubmit, CollectReply, FrameBuffer
from repro.sim import (
    PartialSynchronyPolicy,
    Simulation,
    SynchronousDelays,
    TargetedDropPolicy,
    UniformRandomDelays,
    silence_nodes,
)
from repro.smr import (
    KVStore,
    Mempool,
    Replica,
    Transaction,
)
from repro.smr.kvstore import MAX_INT_BITS
from repro.smr.replica import FRONTIER_SLOTS, finalized_frontier, txids_in_flight
from repro.verification.audit import replay_chain


class TestMempool:
    def test_fifo_order(self):
        pool = Mempool(2, set())
        for k in range(4):
            pool.add(Transaction(f"t{k}", ("noop",)))
        batch = pool.next_batch()
        assert [t.txid for t in batch] == ["t0", "t1"]

    def test_duplicates_rejected(self):
        pool = Mempool(100, set())
        assert pool.add(Transaction("t", ("noop",)))
        assert not pool.add(Transaction("t", ("noop",)))
        assert pool.pending_count == 1

    def test_batch_does_not_remove(self):
        pool = Mempool(10, set())
        pool.add(Transaction("t", ("noop",)))
        pool.next_batch()
        assert pool.pending_count == 1

    def test_finalization_removes_and_blocks_resubmission(self):
        """The pool asks the store's ledger: once ``t`` executed and was
        dropped, it is neither queued nor accepted again."""
        store = KVStore()
        pool = Mempool(100, store)
        pool.add(Transaction("t", ("noop",)))
        pool.drop(store.apply_block(_payload_block(1, GENESIS_DIGEST, ["t"])))
        assert pool.pending_count == 0
        assert "t" in store
        assert not pool.add(Transaction("t", ("noop",)))

    def test_exclude_skips_in_flight(self):
        pool = Mempool(2, set())
        for k in range(4):
            pool.add(Transaction(f"t{k}", ("noop",)))
        batch = pool.next_batch(exclude=frozenset({"t0", "t1"}))
        assert [t.txid for t in batch] == ["t2", "t3"]

    def test_excluded_txns_stay_queued_and_are_skipped(self):
        """Excluded txns stay in the pool (they may yet be aborted) and
        every proposal that excludes them again skips them."""
        pool = Mempool(2, set())
        for k in range(4):
            pool.add(Transaction(f"t{k}", ("noop",)))
        first = pool.next_batch(exclude=frozenset({"t0", "t1"}))
        assert pool.pending_count == 4  # in flight still counts as queued
        again = pool.next_batch(exclude=frozenset({"t0", "t1"}))
        assert [t.txid for t in first] == [t.txid for t in again] == ["t2", "t3"]

    def test_aborted_in_flight_released_in_fifo_position(self):
        """When an exclusion disappears (block aborted by a view
        change), the txn is proposable again in its original FIFO
        position, ahead of later submissions."""
        pool = Mempool(4, set())
        for k in range(3):
            pool.add(Transaction(f"t{k}", ("noop",)))
        assert [t.txid for t in pool.next_batch(exclude=frozenset({"t0"}))] == ["t1", "t2"]
        pool.add(Transaction("t3", ("noop",)))
        batch = pool.next_batch()  # t0's block aborted: no exclusions
        assert [t.txid for t in batch] == ["t0", "t1", "t2", "t3"]

    def test_finalization_clears_in_flight(self):
        """Finalizing the block that carries t0 ends its exclusion: the
        walk stops at the block, and the pool neither offers t0 nor
        takes it back."""
        store = BlockStore()
        state = KVStore()
        pool = Mempool(2, state)
        for k in range(3):
            pool.add(Transaction(f"t{k}", ("noop",)))
        b1 = _payload_block(1, GENESIS_DIGEST, ["t0"])
        store.add(b1)
        exclude = txids_in_flight(store, b1.digest, set())
        assert exclude == {"t0"}
        assert [t.txid for t in pool.next_batch(exclude)] == ["t1", "t2"]
        pool.drop(state.apply_block(b1))
        assert txids_in_flight(store, b1.digest, finalized_frontier([b1])) == set()
        assert [t.txid for t in pool.next_batch()] == ["t1", "t2"]
        assert pool.pending_count == 2
        assert "t0" in state
        assert not pool.add(Transaction("t0", ("noop",)))

    def test_duplicate_rejected_while_in_flight(self):
        pool = Mempool(2, set())
        pool.add(Transaction("t0", ("noop",)))
        assert pool.next_batch(exclude=frozenset({"t0"})) == ()
        assert not pool.add(Transaction("t0", ("noop",)))
        assert [t.txid for t in pool.next_batch()] == ["t0"]


def _payload_block(slot: int, parent: str, txids: list[str]) -> Block:
    payload = tuple(Transaction(txid, ("noop",)) for txid in txids)
    return Block.create(slot, parent, payload)


class TestInFlightIndex:
    """The in-flight set a proposer excludes: :func:`txids_in_flight`."""

    def test_collects_unfinalized_lineage(self):
        store = BlockStore()
        b1 = _payload_block(1, GENESIS_DIGEST, ["a", "b"])
        b2 = _payload_block(2, b1.digest, ["c"])
        store.add(b1)
        store.add(b2)
        assert txids_in_flight(store, b2.digest, set()) == {"a", "b", "c"}
        assert txids_in_flight(store, b1.digest, set()) == {"a", "b"}
        assert txids_in_flight(store, GENESIS_DIGEST, set()) == set()

    def test_walk_stops_at_finalized_frontier(self):
        store = BlockStore()
        b1 = _payload_block(1, GENESIS_DIGEST, ["a"])
        b2 = _payload_block(2, b1.digest, ["b"])
        b3 = _payload_block(3, b2.digest, ["c"])
        for block in (b1, b2, b3):
            store.add(block)
        # a left the pool at finalization; only the unfinalized suffix counts.
        assert txids_in_flight(store, b3.digest, finalized_frontier([b1])) == {"b", "c"}
        assert txids_in_flight(store, b3.digest, finalized_frontier([b1, b2])) == {"c"}

    def test_missing_body_truncates_walk(self):
        store = BlockStore()
        b1 = _payload_block(1, GENESIS_DIGEST, ["a"])
        b2 = _payload_block(2, b1.digest, ["b"])
        store.add(b2)  # b1's body never arrived
        assert txids_in_flight(store, b2.digest, set()) == {"b"}

    def test_non_smr_payloads_contribute_nothing(self):
        store = BlockStore()
        block = Block.create(1, GENESIS_DIGEST, "opaque-payload")
        store.add(block)
        assert txids_in_flight(store, block.digest, set()) == set()

    def test_frontier_stays_bounded_and_ends_walks(self):
        """The frontier is the last FRONTIER_SLOTS + 1 finalized slots,
        however long the chain, and its tip still ends the walk from a
        fresh child."""
        store = BlockStore()
        executed: list[Block] = []
        parent = GENESIS_DIGEST
        chain_len = 3 * FRONTIER_SLOTS
        for slot in range(1, chain_len + 1):
            block = _payload_block(slot, parent, [f"t{slot}"])
            store.add(block)
            executed.append(block)
            parent = block.digest
        frontier = finalized_frontier(executed)
        assert frontier == {b.digest for b in executed[-(FRONTIER_SLOTS + 1) :]}
        child = _payload_block(chain_len + 1, parent, ["fresh"])
        store.add(child)
        assert txids_in_flight(store, child.digest, frontier) == {"fresh"}

    @pytest.mark.parametrize("seed", range(8))
    def test_walk_equals_brute_force_on_random_forked_trees(self, seed):
        """A random block tree: a finalized chain with aborted (skipped)
        slots, finalized to a random depth, and unfinalized forks grown
        off its frontier.  From every block a proposer can extend (a
        frontier or unfinalized block), the walk over the frontier
        equals the txids of its ancestors-or-self that are not
        finalized at all."""
        rng = random.Random(seed)
        store = BlockStore()
        parents: dict[str, str] = {}
        txids: dict[str, set[str]] = {}
        counter = iter(range(10**6))

        def grow(slot: int, parent: str) -> Block:
            names = [f"x{next(counter)}" for _ in range(rng.randint(0, 3))]
            block = _payload_block(slot, parent, names)
            store.add(block)
            parents[block.digest] = parent
            txids[block.digest] = set(names)
            return block

        finalized: list[Block] = []
        slot, parent = 0, GENESIS_DIGEST
        for _ in range(rng.randint(0, 3 * FRONTIER_SLOTS)):
            slot += rng.choice((1, 1, 1, 2, 3))  # aborted views skip slots
            finalized.append(grow(slot, parent))
            parent = finalized[-1].digest
        frontier = finalized_frontier(finalized)
        # Forks may branch off any frontier block, or genesis while
        # nothing is finalized.
        tips = [b for b in finalized if b.digest in frontier] or [None]
        unfinalized: list[Block] = []
        for _ in range(rng.randint(1, 20)):
            base = rng.choice(tips + unfinalized)
            base_slot, base_digest = (
                (0, GENESIS_DIGEST) if base is None else (base.slot, base.digest)
            )
            block = grow(base_slot + rng.randint(1, 3), base_digest)
            unfinalized.append(block)

        settled = {b.digest for b in finalized}
        for block in [b for b in finalized if b.digest in frontier] + unfinalized:
            ancestry = set()
            digest = block.digest
            while digest != GENESIS_DIGEST:
                ancestry.add(digest)
                digest = parents[digest]
            expected = set().union(*(txids[d] for d in ancestry - settled))
            assert txids_in_flight(store, block.digest, frontier) == expected


class TestKVStore:
    def test_set_get_del(self):
        store = KVStore()
        store.apply("1", ("set", "k", "v"))
        assert store.get("k") == "v"
        store.apply("2", ("del", "k"))
        assert store.get("k") is None

    def test_incr_arithmetic(self):
        store = KVStore()
        store.apply("1", ("incr", "c", 5))
        store.apply("2", ("incr", "c", -2))
        assert store.get("c") == 3

    def test_incr_on_non_integer_rejected(self):
        """Execution is total: the incr is a no-op that still consumes
        its txid, so the map keeps the string and the log has both."""
        store = KVStore()
        assert store.apply("1", ("set", "k", "text"))
        assert not store.apply("2", ("incr", "k", 1))
        assert store.get("k") == "text"
        assert store.applied_txids == ["1", "2"]

    @pytest.mark.parametrize(
        "bad_op",
        [("set", "k"), ("del",), ("incr", "k", "NaN"), ("unknown",), "not-a-tuple", ()],
    )
    def test_malformed_commands_rejected(self, bad_op):
        """A command that cannot apply changes nothing but the applied
        log: the digest equals that of a noop under the same txid."""
        store, reference = KVStore(), KVStore()
        assert not store.apply("1", bad_op)
        reference.apply("1", ("noop",))
        assert store.items() == []
        assert store.applied_txids == ["1"]
        assert store.state_digest() == reference.state_digest()

    @pytest.mark.parametrize(
        "bad_op",
        [("set", 1, "x"), ("set", "k", 1 << 5000), ("set", "k", ({1},)), ("incr", ("k",), 1)],
    )
    def test_values_the_digest_cannot_render_are_not_stored(self, bad_op):
        """A non-str key beside str keys would make the digest's sort
        raise, an int past MAX_INT_BITS would let one write grow a cell
        without bound, and a set has no encoding: none is stored."""
        store = KVStore()
        store.apply("1", ("set", "a", "x"))
        assert not store.apply("2", bad_op)
        assert store.items() == [("a", "x")]
        store.state_digest()

    def test_incr_past_the_int_bound_is_a_no_op(self):
        store = KVStore()
        assert store.apply("1", ("incr", "c", (1 << MAX_INT_BITS) - 1))
        assert not store.apply("2", ("incr", "c", 1))
        assert store.get("c") == (1 << MAX_INT_BITS) - 1
        store.state_digest()

    def test_digest_covers_order(self):
        a, b = KVStore(), KVStore()
        a.apply("1", ("set", "k", 1))
        a.apply("2", ("set", "k", 2))
        b.apply("2", ("set", "k", 2))
        b.apply("1", ("set", "k", 1))
        assert a.state_digest() != b.state_digest()

    def test_digest_equal_for_equal_histories(self):
        a, b = KVStore(), KVStore()
        for store in (a, b):
            store.apply("1", ("set", "x", 1))
            store.apply("2", ("incr", "x", 1))
        assert a.state_digest() == b.state_digest()


#: Every kind of value the wire codec decodes: the scalars, Phase,
#: a registered dataclass, ints past 64 bits and past Python's repr
#: limit, and tuples of all of them.
_WIRE_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(1 << 20_000), 1 << 20_000)
    | st.floats(allow_nan=True)
    | st.text(max_size=8)
    | st.binary(max_size=8)
    | st.sampled_from(list(Phase))
    | st.just(Block.create(1, GENESIS_DIGEST, ())),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner),
    max_leaves=6,
)
_KEYS = st.sampled_from(["a", "b"]) | _WIRE_VALUES
_OPS = st.one_of(
    _WIRE_VALUES,
    st.tuples(st.sampled_from(["set", "incr"]), _KEYS, _WIRE_VALUES),
    st.tuples(st.sampled_from(["del", "noop", "set", "incr"]), _KEYS),
    st.tuples(st.sampled_from(["noop", "del"])),
)


def _decoded(op: object) -> object:
    """``op`` as a replica's client port sees it: through the codec."""
    [message] = FrameBuffer(WIRE_CODEC).feed(
        WIRE_CODEC.encode_frame(ClientSubmit(Transaction("t", op)))
    )
    return message.txn.op


@given(ops=st.lists(_OPS, max_size=12))
@settings(max_examples=200, deadline=None)
def test_apply_is_total_and_deterministic_over_every_decodable_op(ops):
    a, b = KVStore(), KVStore()
    for k, op in enumerate(ops):
        op = _decoded(op)
        assert a.apply(f"t{k}", op) == b.apply(f"t{k}", op)
    assert a.state_digest() == b.state_digest()
    assert a.items() == b.items()
    assert a.applied_txids == [f"t{k}" for k in range(len(ops))]


def run_replicas(
    n: int = 4,
    txns: int = 40,
    batch: int = 5,
    policy=None,
    horizon: float = 80.0,
    max_slots: int | None = None,
) -> list[Replica]:
    config = MultiShotConfig(
        base=ProtocolConfig.create(n),
        max_slots=max_slots if max_slots is not None else txns // batch + 10,
    )
    sim = Simulation(policy or SynchronousDelays(1.0))
    replicas = [Replica(i, config, max_batch=batch) for i in range(n)]
    for replica in replicas:
        sim.add_node(replica)
    for k in range(txns):
        for replica in replicas:
            replica.submit(Transaction(f"tx{k}", ("incr", f"key{k % 3}", 1)))
    sim.run(until=horizon)
    return replicas


class TestReplicaIntegration:
    def test_replicas_converge_to_identical_state(self):
        replicas = run_replicas()
        digests = {r.state_digest() for r in replicas}
        assert len(digests) == 1

    def test_all_transactions_eventually_execute(self):
        replicas = run_replicas(txns=40, batch=5, horizon=100.0)
        for replica in replicas:
            assert replica.store.applied_count == 40

    def test_no_transaction_executes_twice(self):
        replicas = run_replicas()
        for replica in replicas:
            applied = replica.store.applied_txids
            assert len(applied) == len(set(applied))

    def test_execution_follows_chain_order(self):
        replicas = run_replicas()
        reference = replicas[0].store.applied_txids
        for replica in replicas[1:]:
            assert replica.store.applied_txids == reference

    def test_liveness_through_leader_crash(self):
        """Definition 2 liveness: transactions survive aborted blocks
        (their batches are re-proposed after the view change)."""
        policy = TargetedDropPolicy(SynchronousDelays(1.0), silence_nodes([3]), end=25.0)
        replicas = run_replicas(policy=policy, horizon=200.0, txns=30, batch=5)
        live = [r for r in replicas]
        digests = {r.state_digest() for r in live}
        assert len(digests) == 1
        assert all(r.store.applied_count == 30 for r in live)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_write_that_cannot_apply_does_not_stop_the_cluster(self, seed):
        """Two well-formed writes, ``set k "x"`` then ``incr k 1``, and
        a write with a non-str key: every replica executes through them
        (no-ops that consume their txids) and the valid writes around
        them, and all four agree."""
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=40)
        sim = Simulation(UniformRandomDelays(0.5, 1.0, seed=seed))
        replicas = [Replica(i, config, max_batch=2) for i in range(4)]
        for replica in replicas:
            sim.add_node(replica)
        txns = [
            Transaction("poison-set", ("set", "k", "x")),
            Transaction("poison-incr", ("incr", "k", 1)),
            Transaction("int-key", ("set", 1, "x")),
        ] + [Transaction(f"ok{k}", ("incr", f"c{k % 3}", 1)) for k in range(12)]
        for txn in txns:
            for replica in replicas:
                replica.submit(txn)
        sim.run(until=200.0)
        for replica in replicas:
            assert sorted(replica.store.applied_txids) == sorted(t.txid for t in txns)
            assert replica.store.get("k") == "x"
            assert replica.store.get("c0") == 4
        assert len({r.state_digest() for r in replicas}) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_write_too_wide_to_render_finalizes_everywhere(self, seed):
        """A ``set`` of a 20,000-bit int, more digits than Python's
        ``repr`` renders, once made every leader raise in
        ``Block.create`` (the digest ``repr``'d the payload), and the
        cluster stayed at height 0.  The digest hashes codec bytes, so
        the block forms; the write is a no-op that consumes its txid
        (wider than MAX_INT_BITS) and every write around it applies."""
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=40)
        sim = Simulation(UniformRandomDelays(0.5, 1.0, seed=seed))
        replicas = [Replica(i, config, max_batch=2) for i in range(4)]
        for replica in replicas:
            sim.add_node(replica)
        txns = [
            Transaction("before", ("set", "k", 1)),
            Transaction("big", ("set", "k", 1 << 20_000)),
        ] + [Transaction(f"ok{k}", ("incr", f"c{k % 3}", 1)) for k in range(12)]
        for txn in txns:
            for replica in replicas:
                replica.submit(txn)
        sim.run(until=200.0)
        for replica in replicas:
            assert sorted(replica.store.applied_txids) == sorted(t.txid for t in txns)
            assert replica.store.get("k") == 1
            assert replica.store.get("c0") == 4
        assert len({r.state_digest() for r in replicas}) == 1

    def test_submission_to_single_replica_insufficient_alone(self):
        """A txn submitted only to a non-leader replica executes only
        once that replica gets to lead a slot — eventually it does."""
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=16)
        sim = Simulation(SynchronousDelays(1.0))
        replicas = [Replica(i, config, max_batch=5) for i in range(4)]
        for replica in replicas:
            sim.add_node(replica)
        replicas[2].submit(Transaction("solo", ("set", "who", 2)))
        sim.run(until=60)
        for replica in replicas:
            assert replica.store.get("who") == 2

    def test_consistency_under_asynchrony(self):
        for seed in range(4):
            policy = PartialSynchronyPolicy(gst=15.0, delta=1.0, loss_before_gst=0.5, seed=seed)
            replicas = run_replicas(policy=policy, horizon=400.0, txns=20, batch=5)
            digests = {r.state_digest() for r in replicas}
            assert len(digests) == 1, f"seed {seed}: divergent state"


class TestPreStartSubmit:
    """Submissions landing before start() must not be stamped t=0."""

    def _replica_with_trackers(self):
        from repro.metrics.smr_trackers import SMRTrackers

        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=4)
        return Replica(1, config, max_batch=5, trackers=SMRTrackers())

    def test_pre_start_submit_recorded_at_first_tick(self, fake_ctx):
        replica = self._replica_with_trackers()
        assert replica.submit(Transaction("early", ("noop",)))
        # Not yet stamped: the replica has no clock before start().
        assert "early" not in replica.trackers.latency._submitted
        fake_ctx.advance(5.0)
        replica.start(fake_ctx)
        # Stamped at the first tick, not at a fictitious t=0 that
        # would inflate the measured submit→commit latency.
        assert replica.trackers.latency._submitted["early"] == 5.0

    def test_post_start_submit_uses_current_clock(self, fake_ctx):
        replica = self._replica_with_trackers()
        replica.start(fake_ctx)
        fake_ctx.advance(3.0)
        replica.submit(Transaction("late", ("noop",)))
        assert replica.trackers.latency._submitted["late"] == 3.0

    def test_mempool_occupancy_still_sampled_pre_start(self):
        replica = self._replica_with_trackers()
        replica.submit(Transaction("early", ("noop",)))
        assert replica.trackers.throughput.peak_mempool([1]) == 1

    def test_pre_start_submits_still_execute(self):
        """The buffered-stamp path changes accounting only, not liveness."""
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=10)
        sim = Simulation(SynchronousDelays(1.0))
        from repro.metrics.smr_trackers import SMRTrackers

        trackers = SMRTrackers()
        replicas = [Replica(i, config, max_batch=5, trackers=trackers) for i in range(4)]
        for replica in replicas:
            sim.add_node(replica)
        for k in range(10):
            for replica in replicas:
                replica.submit(Transaction(f"tx{k}", ("incr", "x", 1)))
        sim.run(until=60)
        assert all(r.store.applied_count == 10 for r in replicas)
        assert trackers.latency.sample_count > 0


class _DuplicatingReplica(Replica):
    """A replica that never excludes in-flight transactions.

    Protocol-legal but wasteful: every proposal re-includes whatever is
    pending, so a transaction re-proposed after (or even without) a
    view change lands in several finalized blocks — exactly the
    situation the execute-once dedup ledger exists for.
    """

    def _make_payload(self, slot: int, parent: str) -> object:
        del slot, parent
        return self.mempool.next_batch()


class TestExecuteOnce:
    def test_duplicate_across_finalized_blocks_unit(self):
        """First execution wins when two finalized blocks share a txn."""
        config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=8)
        replica = Replica(0, config, max_batch=5)
        shared = Transaction("dup", ("incr", "x", 1))
        b1 = Block.create(1, GENESIS_DIGEST, (shared,))
        b2 = Block.create(2, b1.digest, (shared, Transaction("t2", ("incr", "x", 1))))
        replica._execute_block(b1)
        replica._execute_block(b2)
        assert replica.store.get("x") == 2  # dup applied once, t2 once
        assert replica.store.applied_txids == ["dup", "t2"]

    def test_reproposed_txn_applies_exactly_once_cluster_wide(self):
        """A transaction appearing in two finalized blocks (re-proposed
        around a view change by proposers that skip in-flight exclusion)
        executes exactly once on every replica."""
        n, txns = 4, 12
        config = MultiShotConfig(base=ProtocolConfig.create(n), max_slots=20)
        # Silencing node 3 (leader of slot 3) early forces a view change
        # mid-chain, so pending txns are re-proposed across it.
        policy = TargetedDropPolicy(
            SynchronousDelays(1.0), silence_nodes([3]), end=25.0
        )
        sim = Simulation(policy)
        replicas = [_DuplicatingReplica(i, config, max_batch=6) for i in range(n)]
        for replica in replicas:
            sim.add_node(replica)
        for k in range(txns):
            for replica in replicas:
                replica.submit(Transaction(f"tx{k}", ("incr", f"key{k % 3}", 1)))
        sim.run(until=200.0)
        # The duplication premise actually holds: some transaction sits
        # in more than one finalized block.
        reference = replicas[0]
        seen: dict[str, int] = {}
        for block in reference.finalized_chain:
            if isinstance(block.payload, tuple):
                for txn in block.payload:
                    if isinstance(txn, Transaction):
                        seen[txn.txid] = seen.get(txn.txid, 0) + 1
        assert any(count >= 2 for count in seen.values()), (
            "expected at least one txn re-proposed into two finalized blocks"
        )
        # Execute-once: applied exactly once, identically, everywhere.
        for replica in replicas:
            assert replica.store.applied_count == txns
            applied = replica.store.applied_txids
            assert len(applied) == len(set(applied))
        assert len({r.state_digest() for r in replicas}) == 1
        assert len({r.store.applied_count for r in replicas}) == 1


# -- one executor: the replica, the gateway and the replay agree ---------------

_TXIDS = st.sampled_from([f"x{k}" for k in range(5)])
_BLOCK_VALUES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(1 << 20_000), 1 << 20_000)
    | st.text(max_size=4)
)
_BLOCK_OPS = st.one_of(
    _BLOCK_VALUES,
    st.tuples(st.sampled_from(["set", "incr"]), st.sampled_from(["a", "b", 1]), _BLOCK_VALUES),
    st.tuples(st.sampled_from(["del", "noop", "set", "incr"]), st.sampled_from(["a", "b"])),
    st.tuples(st.sampled_from(["noop", "del", "bogus"])),
)
_ITEMS = st.one_of(
    st.builds(Transaction, _TXIDS, _BLOCK_OPS),
    st.sampled_from(["not a txn", 7, None]),
)
_PAYLOADS = st.one_of(
    st.lists(_ITEMS, max_size=5).map(tuple),
    st.just(()),
    st.sampled_from(["synthetic", None, 3]),
)


def _linked(payloads: list[object]) -> tuple[Block, ...]:
    blocks: list[Block] = []
    parent = GENESIS_DIGEST
    for slot, payload in enumerate(payloads, start=1):
        blocks.append(Block.create(slot, parent, payload))
        parent = blocks[-1].digest
    return tuple(blocks)


@given(payloads=st.lists(_PAYLOADS, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_replica_gateway_and_replay_execute_a_chain_alike(payloads):
    """Txids repeated within and across blocks, items that are not
    transactions, empty and non-tuple payloads: a replica bootstrapped
    from the chain, the gateway fed it by f+1 identical replies and the
    auditor's replay hold the same state and the same applied log, in
    which each txid of the chain appears once, at its first occurrence."""
    chain = _linked(payloads)
    replica = Replica(0, MultiShotConfig(base=ProtocolConfig.create(4), max_slots=16))
    replica.bootstrap(chain)
    gateway = GatewayService(types.SimpleNamespace(), GatewayConfig(n=4))
    reply = CollectReply(
        node_id=0,
        chain=chain,
        state_digest=replica.state_digest(),
        applied_txids=tuple(replica.store.applied_txids),
        blocks_applied=len(chain),
        txns_applied=replica.store.applied_count,
    )
    assert gateway.ingest_snapshots({0: reply, 1: reply}) == 2
    # The reference: each txid's first occurrence, applied one by one.
    reference, seen = KVStore(), set()
    for block in chain:
        if isinstance(block.payload, tuple):
            for item in block.payload:
                if isinstance(item, Transaction) and item.txid not in seen:
                    seen.add(item.txid)
                    reference.apply(item.txid, item.op)
    for store in (replica.store, gateway._store, replay_chain(chain)):
        assert store.applied_txids == reference.applied_txids
        assert store.state_digest() == reference.state_digest()
        assert store.items() == reference.items()


@given(op=_OPS)
@settings(max_examples=200, deadline=None)
def test_every_op_the_client_port_decodes_has_one_block_digest(op):
    """``Block.create`` is total over what a replica's client port
    hands its mempool, and a peer that decodes the proposal names the
    block as its leader did."""
    txn = Transaction("t", _decoded(op))
    block = Block.create(1, GENESIS_DIGEST, (txn,))
    [proposal] = FrameBuffer(WIRE_CODEC).feed(WIRE_CODEC.encode_frame(MSProposal(1, 0, block)))
    assert proposal.block.digest == block.digest
