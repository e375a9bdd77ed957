"""Bench A5 — the cross-engine SMR matrix over the pluggable boundary.

Two layers:

* **Smoke matrix** (tier-1): every consensus engine — pipelined
  TetraBFT plus the chained PBFT / IT-HotStuff / Li baselines — runs
  the identical SMR client path (n=4, sync network, all three
  workloads).  Asserts the liveness of every cell and the paper's
  comparative ordering: TetraBFT's pipelining must beat every chained
  baseline on p50 commit latency *and* per-delay throughput, and the
  3-delay PBFT must beat the 6-delay IT-HS/Li on latency.
* **Full grid** (heavy, ``REPRO_HEAVY=1``): engine × workload ×
  sync/geo/crash-recovery × n ∈ {4, 16} — the table
  ``REPRO_HEAVY=1 python -m repro engines`` prints.

A separate tier-1 test pins the refactor invariant the boundary was
built under: TetraBFT *through* the ConsensusEngine interface produces
byte-identical state digests and finalized chains to the pre-refactor
direct wiring (a faithful copy of which is kept below, following the
same convention as the seed-path replicas in the sibling benches).

Smoke invocation (rewrites the deterministic ``engine_matrix_smoke``
record in ``BENCH_smr.json``):
``PYTHONPATH=src python -m pytest benchmarks/test_engine_matrix.py -q``.
"""

from __future__ import annotations

import math
import os

import pytest

from repro.core import ProtocolConfig
from repro.eval.engine_matrix import (
    format_engine_report,
    run_batching_ablation,
    run_engine_matrix,
    run_engine_smoke,
)
from repro.multishot import MultiShotConfig, MultiShotNode
from repro.multishot.block import Block
from repro.sim import Simulation, SynchronousDelays
from repro.smr import (
    ENGINE_NAMES,
    KVStore,
    Mempool,
    Replica,
    Transaction,
)
from repro.smr.engine import multishot_engine
from repro.smr.replica import finalized_frontier, txids_in_flight

heavy = pytest.mark.skipif(
    not os.environ.get("REPRO_HEAVY"),
    reason="full engine grid (4 engines x 27 cells); set REPRO_HEAVY=1 to run",
)


def test_engine_matrix_smoke(once, bench_record, row_record):
    """Tier-1 slice of A5: one row per engine × workload, sync, n=4."""
    rows = once(run_engine_smoke)
    print()
    print(format_engine_report(rows))
    assert {row.engine for row in rows} == set(ENGINE_NAMES)
    by_cell = {(row.engine, row.workload): row for row in rows}
    for row in rows:
        # Liveness over the shared client path, for every engine.
        assert row.committed == row.txns, (row.engine, row.workload)
        assert math.isfinite(row.p50) and row.p50 > 0
        assert row.p50 <= row.p95 <= row.p99
    for workload in {row.workload for row in rows}:
        tetra = by_cell[("tetrabft", workload)]
        pbft = by_cell[("pbft", workload)]
        for name in ENGINE_NAMES:
            if name == "tetrabft":
                continue
            other = by_cell[(name, workload)]
            # The paper's comparative claim, end to end: pipelined
            # TetraBFT beats every chained baseline on client-observed
            # latency and per-delay throughput.
            assert tetra.p50 < other.p50, (name, workload)
            assert tetra.txns_per_delay > other.txns_per_delay, (name, workload)
        # And within the baselines, fewer phases means lower latency.
        for name in ("ithotstuff", "li"):
            assert pbft.p50 < by_cell[(name, workload)].p50, (name, workload)
    bench_record("smr", "engine_matrix_smoke", [row_record(row) for row in rows])


@heavy
def test_engine_matrix_full_grid(once):
    """The full A5 grid — what REPRO_HEAVY=1 `python -m repro engines` prints."""
    rows = once(run_engine_matrix)
    print()
    print(format_engine_report(rows))
    assert {row.engine for row in rows} == set(ENGINE_NAMES)
    assert {row.n for row in rows} == {4, 16}
    assert {row.scenario for row in rows} == {"sync", "geo", "crash-recovery"}
    for row in rows:
        assert row.committed >= 0.95 * row.txns, (
            row.engine, row.workload, row.scenario, row.n,
        )
        if row.scenario == "sync":
            assert row.committed == row.txns, (row.engine, row.workload, row.n)


@heavy
def test_batching_ablation_n16(once, bench_record, row_record):
    """Message-plane A/B at n=16: batching changes frames/Δ, nothing else.

    The nightly cell that keeps the aggregation plane honest at a size
    where it matters: same commits and identical client-observed
    latency (batching is semantics-free and the scenario is
    deterministic), strictly fewer physical frames.
    """
    rows = once(run_batching_ablation)
    print()
    print(format_engine_report(rows))
    batched, unbatched = rows
    assert batched.engine == "tetrabft"
    assert unbatched.engine == "tetrabft-nobatch"
    assert batched.committed == batched.txns
    assert unbatched.committed == unbatched.txns
    assert (batched.p50, batched.p95, batched.p99) == (
        unbatched.p50,
        unbatched.p95,
        unbatched.p99,
    )
    assert unbatched.frames == unbatched.messages
    assert batched.frames < unbatched.frames
    bench_record("smr", "batching_ablation_n16", [row_record(row) for row in rows])


# --- pre-refactor direct wiring (the boundary's identity oracle) ---------------


class _DirectWiredReplica:
    """The pre-ConsensusEngine replica: MultiShotNode built inline.

    A sibling copy lives in tests/test_engine.py (which additionally
    compares traces); benchmarks and tests are separate pytest roots,
    so each keeps its own.  Edit both together or the identity
    baseline drifts.
    """

    def __init__(self, node_id: int, config: MultiShotConfig, max_batch: int) -> None:
        self.node_id = node_id
        # The oracle's own first-execution ledger, independent of
        # KVStore.apply_block.
        self._executed: set[str] = set()
        self.mempool = Mempool(max_batch, self._executed)
        self.store = KVStore()
        self.executed_blocks: list[Block] = []
        self.consensus = MultiShotNode(
            node_id,
            config,
            payload_fn=self._make_payload,
            on_finalize=self._execute_block,
        )

    def start(self, ctx) -> None:
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
        applied = []
        for txn in payload:
            if isinstance(txn, Transaction) and txn.txid not in self._executed:
                self._executed.add(txn.txid)
                self.store.apply(txn.txid, txn.op)
                applied.append(txn.txid)
        self.mempool.drop(applied)


def _run_cluster(make_replica, n=4, txns=120, batch=10):
    config = MultiShotConfig(base=ProtocolConfig.create(n), max_slots=txns // batch + 10)
    sim = Simulation(SynchronousDelays(1.0))
    replicas = [make_replica(i, config, batch) for i in range(n)]
    for replica in replicas:
        sim.add_node(replica)
    for k in range(txns):
        for replica in replicas:
            replica.submit(Transaction(f"tx-{k}", ("incr", f"key-{k % 7}", 1)))
    sim.run(until=txns // batch + 40)
    return replicas


def test_tetrabft_engine_boundary_byte_identical(benchmark):
    """The A5 tetrabft row's path ≡ the pre-refactor direct wiring."""
    oracle = _run_cluster(_DirectWiredReplica)
    engines = benchmark.pedantic(
        lambda: _run_cluster(
            lambda i, config, batch: Replica(
                i, max_batch=batch, engine_factory=multishot_engine(config)
            )
        ),
        rounds=1,
        iterations=1,
    )
    assert [r.state_digest() for r in engines] == [r.state_digest() for r in oracle]
    assert [[b.digest for b in r.finalized_chain] for r in engines] == [
        [b.digest for b in r.finalized_chain] for r in oracle
    ]
    assert all(r.store.applied_count == 120 for r in engines)
