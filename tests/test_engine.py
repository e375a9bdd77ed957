"""Tests for the pluggable ConsensusEngine boundary of the SMR layer.

Three concerns:

* **Interface conformance** — both shipped engines (the Multi-shot
  TetraBFT reference and the chained Table 1 baselines) structurally
  satisfy :class:`repro.smr.ConsensusEngine`.
* **Engine-swap determinism** — TetraBFT driven *through* the engine
  boundary is byte-identical to the pre-refactor direct wiring: same
  state digests, same finalized chains, same traces.  The oracle below
  is a faithful copy of the pre-refactor ``Replica`` (constructing
  ``MultiShotNode`` inline), kept so the identity claim stays
  measurable against the exact code shape it replaced.
* **Baseline engines run the full client path** — mempool, in-flight
  dedup, execution and state digests behave identically across
  replicas for every chained engine, including execute-once semantics
  for duplicate transactions and liveness through view changes and
  crash/recovery (the catch-up channel).
"""

from __future__ import annotations

import pytest

from repro.core import ProtocolConfig
from repro.multishot import MultiShotConfig, MultiShotNode
from repro.multishot.block import GENESIS_DIGEST, Block
from repro.sim import (
    CrashRecoveryPolicy,
    Simulation,
    SynchronousDelays,
    TargetedDropPolicy,
    silence_nodes,
)
from repro.sim.runner import NodeContext, SimNode
from repro.smr import (
    ConsensusEngine,
    ENGINE_NAMES,
    KVStore,
    Mempool,
    Replica,
    Transaction,
    engine_factory,
    multishot_engine,
)
from repro.smr.replica import finalized_frontier, txids_in_flight
from repro.verification.audit import replay_chain

BASELINE_ENGINES = tuple(name for name in ENGINE_NAMES if name != "tetrabft")


# --- pre-refactor oracle -------------------------------------------------------
#
# A faithful copy of the Replica as it stood before the ConsensusEngine
# boundary existed: MultiShotNode constructed directly in __init__,
# everything else identical.  The determinism tests below assert the
# refactored path cannot be told apart from it.


class _DirectWiredReplica(SimNode):
    """The pre-refactor replica: consensus hard-wired to MultiShotNode.

    A sibling copy lives in benchmarks/test_engine_matrix.py;
    benchmarks and tests are separate pytest roots, so each keeps its
    own.  Edit both together or the identity baseline drifts.
    """

    def __init__(self, node_id: int, config: MultiShotConfig, max_batch: int) -> None:
        self.node_id = node_id
        # The oracle's own first-execution ledger, independent of
        # KVStore.apply_block.
        self._executed: set[str] = set()
        self.mempool = Mempool(max_batch, self._executed)
        self.store = KVStore()
        self.executed_blocks: list[Block] = []
        self._ctx: NodeContext | None = None
        self.consensus = MultiShotNode(
            node_id,
            config,
            payload_fn=self._make_payload,
            on_finalize=self._execute_block,
        )

    def start(self, ctx: NodeContext) -> None:
        self._ctx = ctx
        self.consensus.start(ctx)

    def receive(self, sender: int, message: object) -> None:
        self.consensus.receive(sender, message)

    def submit(self, txn: Transaction) -> bool:
        return self.mempool.add(txn)

    @property
    def finalized_chain(self) -> list[Block]:
        return self.consensus.finalized_chain

    def state_digest(self) -> str:
        return self.store.state_digest()

    def _make_payload(self, slot: int, parent: str) -> object:
        del slot
        finalized = finalized_frontier(self.executed_blocks)
        return self.mempool.next_batch(
            exclude=txids_in_flight(self.consensus.store, parent, finalized)
        )

    def _execute_block(self, block: Block) -> None:
        self.executed_blocks.append(block)
        payload = block.payload
        if not isinstance(payload, tuple):
            return
        applied_ids = []
        for txn in payload:
            if not isinstance(txn, Transaction):
                continue
            if txn.txid in self._executed:
                continue
            self._executed.add(txn.txid)
            self.store.apply(txn.txid, txn.op)
            applied_ids.append(txn.txid)
        self.mempool.drop(applied_ids)


def _drive(make_replica, policy_fn, n=4, txns=24, batch=4, horizon=120.0):
    """One deterministic SMR run; returns (replicas, trace events)."""
    config = MultiShotConfig(base=ProtocolConfig.create(n), max_slots=txns // batch + 10)
    sim = Simulation(policy_fn(), trace_enabled=True)
    replicas = [make_replica(i, config, batch) for i in range(n)]
    for replica in replicas:
        sim.add_node(replica)
    for k in range(txns):
        for replica in replicas:
            replica.submit(Transaction(f"tx{k}", ("incr", f"key{k % 3}", 1)))
    sim.run(until=horizon)
    return replicas, list(sim.trace)


_SCENARIOS = {
    "sync": lambda: SynchronousDelays(1.0),
    "crashed-leader": lambda: TargetedDropPolicy(
        SynchronousDelays(1.0), silence_nodes([3]), end=25.0
    ),
}


class TestEngineInterface:
    def test_multishot_node_satisfies_protocol(self):
        config = MultiShotConfig(base=ProtocolConfig.create(4))
        node = MultiShotNode(0, config)
        assert isinstance(node, ConsensusEngine)

    @pytest.mark.parametrize("name", BASELINE_ENGINES)
    def test_chained_engines_satisfy_protocol(self, name):
        factory = engine_factory(name, ProtocolConfig.create(4))
        engine = factory(0, lambda slot, parent: (), lambda block: None)
        assert isinstance(engine, ConsensusEngine)

    def test_unknown_engine_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            engine_factory("raft", ProtocolConfig.create(4))

    def test_replica_requires_config_or_factory(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Replica(0)

    def test_default_replica_engine_is_multishot(self):
        config = MultiShotConfig(base=ProtocolConfig.create(4))
        replica = Replica(0, config)
        assert isinstance(replica.consensus, MultiShotNode)


class TestEngineSwapDeterminism:
    """TetraBFT over the boundary ≡ the pre-refactor direct wiring."""

    @pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
    def test_byte_identical_to_direct_wiring(self, scenario):
        policy_fn = _SCENARIOS[scenario]
        oracle, oracle_trace = _drive(
            lambda i, config, batch: _DirectWiredReplica(i, config, batch),
            policy_fn,
        )
        engines, engine_trace = _drive(
            lambda i, config, batch: Replica(
                i, max_batch=batch, engine_factory=multishot_engine(config)
            ),
            policy_fn,
        )
        # Same committed bytes on every replica...
        assert [r.state_digest() for r in engines] == [
            r.state_digest() for r in oracle
        ]
        # ...the same finalized chains, digest for digest...
        assert [
            [b.digest for b in r.finalized_chain] for r in engines
        ] == [[b.digest for b in r.finalized_chain] for r in oracle]
        # ...and the very same trace, event for event.
        assert engine_trace == oracle_trace
        # The runs actually did something.
        assert all(r.store.applied_count == 24 for r in engines)

    def test_default_constructor_matches_explicit_factory(self):
        """Replica(i, config) and the factory spelling are one path."""
        direct, _ = _drive(
            lambda i, config, batch: Replica(i, config, max_batch=batch),
            _SCENARIOS["sync"],
        )
        explicit, _ = _drive(
            lambda i, config, batch: Replica(
                i, max_batch=batch, engine_factory=multishot_engine(config)
            ),
            _SCENARIOS["sync"],
        )
        assert [r.state_digest() for r in direct] == [r.state_digest() for r in explicit]


def _run_engine_cluster(name, policy, txns=24, batch=4, horizon=300.0, n=4):
    factory = engine_factory(name, ProtocolConfig.create(n))
    sim = Simulation(policy)
    replicas = [Replica(i, max_batch=batch, engine_factory=factory) for i in range(n)]
    sim.add_nodes(list(replicas))
    for k in range(txns):
        for replica in replicas:
            replica.submit(Transaction(f"tx{k}", ("incr", f"key{k % 3}", 1)))
    sim.run(
        until=horizon,
        stop_when=lambda: all(r.store.applied_count >= txns for r in replicas),
        stop_check_interval=16,
    )
    return replicas


class TestChainedEngineClientPath:
    """Every baseline engine runs the full SMR client path."""

    @pytest.mark.parametrize("name", BASELINE_ENGINES)
    def test_liveness_and_agreement(self, name):
        replicas = _run_engine_cluster(name, SynchronousDelays(1.0))
        assert all(r.store.applied_count == 24 for r in replicas), name
        assert len({r.state_digest() for r in replicas}) == 1, name
        # Chained engines have no finality lag: every decided block is
        # final, and chains are identical across replicas.
        chains = {
            tuple(b.digest for b in r.finalized_chain) for r in replicas
        }
        assert len(chains) == 1, name

    @pytest.mark.parametrize("name", BASELINE_ENGINES)
    def test_execute_once_for_duplicate_blocks(self, name):
        """First execution wins when two finalized blocks share a txn —
        the dedup ledger is engine-independent."""
        factory = engine_factory(name, ProtocolConfig.create(4))
        replica = Replica(0, max_batch=5, engine_factory=factory)
        shared = Transaction("dup", ("incr", "x", 1))
        b1 = Block.create(1, GENESIS_DIGEST, (shared,))
        b2 = Block.create(2, b1.digest, (shared, Transaction("t2", ("incr", "x", 1))))
        replica._execute_block(b1)
        replica._execute_block(b2)
        assert replica.store.get("x") == 2
        assert replica.store.applied_txids == ["dup", "t2"]

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_execute_once_for_a_txid_repeated_in_one_block(self, name):
        """A txid listed twice in one block executes once, as the
        auditor's replay executes it, whatever the engine."""
        factory = engine_factory(name, ProtocolConfig.create(4))
        replica = Replica(0, max_batch=5, engine_factory=factory)
        txn = Transaction("t1", ("incr", "k", 1))
        block = Block.create(1, GENESIS_DIGEST, (txn, txn))
        replica._execute_block(block)
        assert replica.store.get("k") == 1
        assert replica.store.applied_txids == ["t1"]
        assert replica.state_digest() == replay_chain((block,)).state_digest()

    @pytest.mark.parametrize("name", BASELINE_ENGINES)
    def test_no_transaction_executes_twice(self, name):
        replicas = _run_engine_cluster(name, SynchronousDelays(1.0))
        for replica in replicas:
            applied = replica.store.applied_txids
            assert len(applied) == len(set(applied)), name

    @pytest.mark.parametrize("name", BASELINE_ENGINES)
    def test_liveness_through_silenced_node(self, name):
        """A silenced node forces per-slot view changes; the batch is
        re-proposed by the rotated leader and still commits."""
        policy = TargetedDropPolicy(SynchronousDelays(1.0), silence_nodes([3]), end=25.0)
        replicas = _run_engine_cluster(name, policy, horizon=400.0)
        assert all(r.store.applied_count == 24 for r in replicas), name
        assert len({r.state_digest() for r in replicas}) == 1, name

    @pytest.mark.parametrize("name", BASELINE_ENGINES)
    def test_crashed_node_catches_up(self, name):
        """After an outage the laggard's view-change probes are answered
        with batches of decided blocks (the catch-up channel): it
        converges to the identical state without anyone re-running old
        slots."""
        policy = CrashRecoveryPolicy.periodic(
            SynchronousDelays(1.0),
            node_ids=[3],
            period=100.0,
            outage=10.0,
            horizon=100.0,
        )
        replicas = _run_engine_cluster(name, policy, horizon=400.0)
        assert all(r.store.applied_count == 24 for r in replicas), name
        assert len({r.state_digest() for r in replicas}) == 1, name

    @pytest.mark.parametrize("name", BASELINE_ENGINES)
    def test_catchup_outpaces_rolling_outages(self, name):
        """The bench scenario's schedule — a 10Δ outage every 30Δ, for
        the whole run: each catch-up batch recovers far more chain than
        an outage costs, so the rebooted replica reconverges between
        outages instead of falling ever further behind while its peers
        keep committing."""
        policy = CrashRecoveryPolicy.periodic(
            SynchronousDelays(1.0),
            node_ids=[3],
            period=30.0,
            outage=10.0,
            horizon=400.0,
        )
        replicas = _run_engine_cluster(name, policy, txns=60, batch=5, horizon=400.0)
        assert all(r.store.applied_count == 60 for r in replicas), name
        assert len({r.state_digest() for r in replicas}) == 1, name
