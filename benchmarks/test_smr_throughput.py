"""Bench A4 — end-to-end SMR throughput, latency, and the 2× hot path.

Three layers of coverage for the deployment scenario §1 motivates (a
replicated KV store over Multi-shot TetraBFT):

* **End-to-end liveness + rate** (tier-1): a full n=4 cluster commits
  every submitted transaction at ≈ one block of txns per message delay,
  with identical replica state digests, plus a smoke pass of the A4
  latency/throughput sweep (all workloads × all scenarios at n=4).
* **Full A4 sweep** (heavy, ``REPRO_HEAVY=1``): Uniform/Bursty/HotKey ×
  sync/geo/crash-recovery × n ∈ {4, 16, 64} — the client-observed
  latency table ``python -m repro smr`` prints.
* **2× micro-benchmark** (tier-1): the proposal+finalization hot path —
  indexed mempool + incremental :class:`InFlightIndex` + frontier-based
  :class:`ChainState` — against a faithful replica of the seed
  implementation (O(chain) ``chain_to_genesis`` walk per proposal,
  ``sorted()`` full rescan per notarization, linear finalized-tail
  scan, full-chain rebuild per finalization) on the n=64 bursty slot
  schedule.  The indexed path must sustain ≥2× the seed's txns/sec
  while producing byte-identical state digests.

Smoke invocation (rewrites the deterministic ``end_to_end_n4`` and
``smr_smoke`` records in ``BENCH_smr.json``; txn/s is printed, not
persisted):
``PYTHONPATH=src python -m pytest benchmarks/test_smr_throughput.py -q``;
add ``REPRO_HEAVY=1`` for the full sweep.
"""

from __future__ import annotations

import math
import os
import time
from collections import OrderedDict

import pytest

from repro.core import ProtocolConfig
from repro.errors import ProtocolViolation
from repro.eval.smr_bench import format_smr_report, run_smr_smoke, run_smr_sweep
from repro.multishot import MultiShotConfig
from repro.multishot.block import GENESIS_DIGEST, Block, BlockStore
from repro.multishot.chain import FINALITY_WINDOW, ChainState
from repro.sim import Simulation, SynchronousDelays
from repro.smr import InFlightIndex, KVStore, Mempool, Replica, Transaction
from repro.workloads import BurstyWorkload

heavy = pytest.mark.skipif(
    not os.environ.get("REPRO_HEAVY"),
    reason="full A4 sweep (n up to 64, 27 runs); set REPRO_HEAVY=1 to run",
)


def run_smr(n: int = 4, txns: int = 200, batch: int = 10) -> dict:
    config = MultiShotConfig(base=ProtocolConfig.create(n), max_slots=txns // batch + 8)
    sim = Simulation(SynchronousDelays(1.0))
    replicas = [Replica(i, config, max_batch=batch) for i in range(n)]
    for replica in replicas:
        sim.add_node(replica)
    for k in range(txns):
        for replica in replicas:
            replica.submit(Transaction(f"tx-{k}", ("incr", f"key-{k % 7}", 1)))
    end = sim.run(until=txns // batch + 40)
    digests = {r.state_digest() for r in replicas}
    applied = [r.store.applied_count for r in replicas]
    return {
        "duration": end,
        "digests": digests,
        "applied": applied,
        "throughput": min(applied) / end,
        "heights": [len(r.finalized_chain) for r in replicas],
    }


def test_smr_throughput(once, bench_record):
    result = once(run_smr, n=4, txns=200, batch=10)
    print()
    print(
        f"applied={result['applied']} over t={result['duration']} "
        f"=> {result['throughput']:.1f} txn/delay"
    )
    bench_record(
        "smr",
        "end_to_end_n4",
        {
            "txns": 200,
            "sim_duration": result["duration"],
            "txns_per_delay": result["throughput"],
        },
    )
    # Determinism: every replica ends in the same state.
    assert len(result["digests"]) == 1
    # Liveness: all 200 transactions executed everywhere.
    assert all(a == 200 for a in result["applied"])
    # Pipelining pays: ~one block (= batch txns) per delay in steady
    # state, so throughput approaches the batch size.
    assert result["throughput"] > 3.0


def test_smr_latency_smoke(once, bench_record, row_record):
    """Tier-1 slice of A4: n=4, every workload × scenario, tiny load."""
    rows = once(run_smr_smoke)
    print()
    print(format_smr_report(rows))
    assert {row.workload for row in rows} == {"uniform", "bursty", "hotkey"}
    assert {row.scenario for row in rows} == {"sync", "geo", "crash-recovery"}
    for row in rows:
        # Liveness: the whole workload commits on every live replica.
        assert row.committed == row.txns, (row.workload, row.scenario)
        assert math.isfinite(row.p50) and row.p50 > 0
        assert row.p50 <= row.p95 <= row.p99
        # The pipeline's floor: finalization lags the proposal by the
        # 4-slot window, so no commit can beat ~4 message delays; the
        # crash-recovery scenario pays view-change stalls on top.
        assert row.p50 >= 2.0, (row.workload, row.scenario)
    bench_record("smr", "smr_smoke", [row_record(row) for row in rows])


@heavy
def test_smr_full_sweep(once):
    """The full A4 table — the figure `python -m repro smr` prints."""
    rows = once(run_smr_sweep)
    print()
    print(format_smr_report(rows))
    assert {row.n for row in rows} == {4, 16, 64}
    for row in rows:
        assert row.committed >= 0.95 * row.txns, (row.workload, row.scenario, row.n)
        if row.scenario == "sync":
            assert row.committed == row.txns, (row.workload, row.n)


# --- seed-hot-path replicas for the 2× micro-benchmark -----------------
#
# Faithful copies of the pre-refactor SMR hot path, kept here so the
# speedup claim stays measurable against the exact code shape it
# replaced: the seed walked the whole chain to genesis to compute the
# in-flight set before every proposal, re-sorted every notarized slot
# on every notarization, resolved finalized-slot lookups with a linear
# scan, and rebuilt the finalized chain from genesis on every
# finalization.


class _SeedMempool:
    """The seed pool: no in-flight index, rescan-and-skip per proposal."""

    def __init__(self, max_batch: int = 100) -> None:
        self.max_batch = max_batch
        self._pending: OrderedDict[str, Transaction] = OrderedDict()
        self._finalized: set[str] = set()

    def add(self, txn: Transaction) -> bool:
        if txn.txid in self._pending or txn.txid in self._finalized:
            return False
        self._pending[txn.txid] = txn
        return True

    def next_batch(self, exclude: frozenset = frozenset()) -> tuple:
        batch = []
        for txid, txn in self._pending.items():
            if txid in exclude:
                continue
            batch.append(txn)
            if len(batch) >= self.max_batch:
                break
        return tuple(batch)

    def mark_finalized(self, txids) -> None:
        for txid in txids:
            self._pending.pop(txid, None)
            self._finalized.add(txid)

    def is_finalized(self, txid: str) -> bool:
        return txid in self._finalized


class _SeedChainState:
    """The seed finalization bookkeeping: sorted rescans, linear tails."""

    def __init__(self, store: BlockStore) -> None:
        self.store = store
        self._notarized: dict[int, set[str]] = {}
        self.finalized: list[Block] = []

    def notarize(self, slot: int, digest: str) -> list[Block]:
        self._notarized.setdefault(slot, set()).add(digest)
        return self.check_finalization()

    def is_notarized(self, slot: int, digest: str) -> bool:
        if slot <= 0:
            return digest == GENESIS_DIGEST or self._tail_digest_at(slot) == digest
        if digest in self._notarized.get(slot, set()):
            return True
        return self._tail_digest_at(slot) == digest

    def _tail_digest_at(self, slot: int) -> str | None:
        for block in self.finalized:
            if block.slot == slot:
                return block.digest
        return None

    @property
    def finalized_height(self) -> int:
        return self.finalized[-1].slot if self.finalized else 0

    def check_finalization(self) -> list[Block]:
        newly: list[Block] = []
        progress = True
        while progress:
            progress = False
            for top_slot in sorted(self._notarized):
                if top_slot - (FINALITY_WINDOW - 1) < self.finalized_height:
                    continue
                for top_digest in self._notarized[top_slot]:
                    appended = self._try_finalize_run(top_slot, top_digest)
                    if appended:
                        newly.extend(appended)
                        progress = True
                        break
                if progress:
                    break
        return newly

    def _try_finalize_run(self, top_slot: int, top_digest: str) -> list[Block]:
        current = top_digest
        for depth in range(FINALITY_WINDOW - 1):
            block = self.store.get(current)
            if block is None:
                return []
            parent_slot = top_slot - depth - 1
            if parent_slot <= 0:
                return []
            if not self.is_notarized(parent_slot, block.parent):
                return []
            current = block.parent
        return self._finalize_chain_to(current)

    def _finalize_chain_to(self, digest: str) -> list[Block]:
        chain = self.store.chain_to_genesis(digest)
        if chain is None:
            return []
        for old, new in zip(self.finalized, chain):
            if old.digest != new.digest:
                raise ProtocolViolation(
                    f"finalized-chain fork at slot {old.slot}: "
                    f"{old.digest} vs {new.digest}"
                )
        if chain and chain[-1].slot <= self.finalized_height:
            return []
        newly = chain[len(self.finalized):]
        self.finalized = chain
        return newly


class _SeedInFlight:
    """The seed in-flight computation: walk the whole chain to genesis."""

    def __init__(self, store: BlockStore) -> None:
        self._store = store

    def txids_on(self, parent: str) -> frozenset:
        in_flight: set[str] = set()
        chain = self._store.chain_to_genesis(parent)
        if chain is not None:
            for block in chain:
                payload = block.payload
                if isinstance(payload, tuple):
                    in_flight.update(txn.txid for txn in payload if isinstance(txn, Transaction))
        return frozenset(in_flight)

    def mark_finalized(self, block: Block) -> None:
        pass  # the seed kept no finalized frontier


def _bursty_feed(slots: int, batch: int) -> list[tuple[float, Transaction]]:
    """The bursty transaction stream, sized so the pool never runs dry.

    Same burst shape as the A4 n=64 bursty cell (bursts of 5 blocks)
    but offered slightly above the drain rate, so every proposal carries
    a full batch and the backlog the workload exists to stress persists
    across the whole run.
    """
    workload = BurstyWorkload(bursts=slots // 4, burst_size=5 * batch, period=4.0, seed=0)
    return list(workload.transactions())


def _drive_proposal_finalization(
    chain_cls, mempool, in_flight_cls, feed, slots: int, batch: int
) -> dict:
    """Replay one replica's proposal+finalization schedule.

    The slot schedule is the one a 64-replica bursty run produces in the
    good case — one proposal per message delay, each extending the
    previous slot's block, notarization arriving a delay later — with
    the network stripped away so the measured object is exactly the SMR
    hot path: in-flight computation, batch extraction, notarization and
    finalization bookkeeping, and deterministic execution.
    """
    store = BlockStore()
    chain = chain_cls(store)
    in_flight = in_flight_cls(store)
    kv = KVStore()
    feed_pos = 0
    parent = GENESIS_DIGEST
    start = time.perf_counter()
    for slot in range(1, slots + 1):
        now = float(slot)
        while feed_pos < len(feed) and feed[feed_pos][0] <= now:
            mempool.add(feed[feed_pos][1])
            feed_pos += 1
        batch_txns = mempool.next_batch(exclude=in_flight.txids_on(parent))
        block = Block.create(slot, parent, batch_txns)
        store.add(block)
        newly = chain.notarize(slot, block.digest)
        # A real node also re-checks on every proposal-body arrival.
        newly.extend(chain.check_finalization())
        for final in newly:
            applied = []
            for txn in final.payload:
                if mempool.is_finalized(txn.txid):
                    continue
                kv.apply(txn.txid, txn.op)
                applied.append(txn.txid)
            mempool.mark_finalized(applied)
            in_flight.mark_finalized(final)
        parent = block.digest
    wall = time.perf_counter() - start
    return {
        "digest": kv.state_digest(),
        "applied": kv.applied_count,
        "txns_per_sec": kv.applied_count / wall,
        "height": chain.finalized_height,
    }


def _best_of(fn, repeats: int = 3) -> dict:
    results = [fn() for _ in range(repeats)]
    return max(results, key=lambda r: r["txns_per_sec"])


def test_indexed_smr_path_at_least_2x_seed(benchmark):
    slots, batch = 240, 50
    feed = _bursty_feed(slots, batch)

    def seed_run():
        return _drive_proposal_finalization(
            _SeedChainState, _SeedMempool(max_batch=batch), _SeedInFlight,
            feed, slots, batch,
        )

    def indexed_run():
        return _drive_proposal_finalization(
            ChainState, Mempool(max_batch=batch), InFlightIndex,
            feed, slots, batch,
        )

    seed = _best_of(seed_run)
    indexed = benchmark.pedantic(lambda: _best_of(indexed_run), rounds=1, iterations=1)
    print(
        f"\nseed SMR path: {seed['txns_per_sec']:,.0f} txn/s   "
        f"indexed path: {indexed['txns_per_sec']:,.0f} txn/s   "
        f"ratio {indexed['txns_per_sec'] / seed['txns_per_sec']:.2f}x"
    )
    # Same schedule, same feed: the refactor must not change a single
    # committed byte...
    assert indexed["digest"] == seed["digest"]
    assert indexed["applied"] == seed["applied"] > 0
    assert indexed["height"] == seed["height"]
    # ...and must at least double the seed's sustained commit rate.
    assert indexed["txns_per_sec"] >= 2.0 * seed["txns_per_sec"], (
        f"SMR hot path regressed: {indexed['txns_per_sec']:,.0f} vs seed "
        f"{seed['txns_per_sec']:,.0f} txn/s "
        f"({indexed['txns_per_sec'] / seed['txns_per_sec']:.2f}x, need >= 2x)"
    )
