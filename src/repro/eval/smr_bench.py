"""Experiment A4 — end-to-end SMR latency and throughput.

The paper's headline claim is pipelined multi-shot consensus committing
one block per message delay; the scaling sweep (A1b) only shows the
*simulator* keeps up.  This experiment reports what a **client** sees:
full :class:`~repro.smr.replica.Replica` clusters (consensus + mempool
+ deterministic execution) are driven by the seeded transaction
workloads — Uniform / Bursty / HotKey — at n ∈ {4, 16, 64} under the
sync / geo / crash-recovery scenario policies, and every row of the
report is a client-observed quantity:

* **p50/p95/p99 commit latency** in message delays: submit timestamp to
  the moment a replica applies the transaction, sampled per
  (replica, transaction) pair via
  :class:`~repro.metrics.smr_trackers.LatencyTracker`;
* **txns/sec** (wall clock) and **txns/Δ, blocks/Δ** (simulated time):
  sustained commit throughput via
  :class:`~repro.metrics.smr_trackers.ThroughputTracker`;
* **peak mempool occupancy**: the backlog high-water mark, the figure
  the bursty workload exists to stress.

In the good case latency should sit a small constant number of message
delays above submission (the pipeline commits one block per delay and
finalization lags the window), and bursty backlogs should drain at
≈ batch transactions per delay; the crash-recovery scenario shows the
price of rolling outages on the tail percentiles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import ProtocolConfig
from repro.eval.report import format_table
from repro.eval.scaling import scenario_policy
from repro.metrics.smr_trackers import SMRTrackers
from repro.sim import Simulation
from repro.smr import Replica, engine_factory
from repro.workloads import (
    BurstyWorkload,
    HotKeyWorkload,
    UniformWorkload,
    Workload,
)

#: Cluster sizes of the full sweep (the smoke variant trims this).
SMR_NS = (4, 16, 64)

WORKLOAD_NAMES = ("uniform", "bursty", "hotkey")

SMR_SCENARIOS = ("sync", "geo", "crash-recovery")

#: One simulated message delay — every policy in the sweep bounds its
#: links by this Δ, and latency percentiles are reported in units of it.
DELTA = 1.0


def build_workload(name: str, txns: int, batch: int, seed: int = 0) -> Workload:
    """The named seeded workload, sized to ``txns`` transactions.

    Rates are set so the offered load roughly matches the pipeline's
    steady-state capacity (≈ batch transactions per delay): uniform and
    hotkey stream at ``batch`` txns/Δ, bursty lands 5-block bursts and
    leaves the pipeline to drain the backlog.
    """
    if name == "uniform":
        return UniformWorkload(count=txns, rate=float(batch), seed=seed)
    if name == "bursty":
        burst_size = 5 * batch
        return BurstyWorkload(
            bursts=max(1, txns // burst_size),
            burst_size=burst_size,
            period=10.0,
            seed=seed,
        )
    if name == "hotkey":
        return HotKeyWorkload(count=txns, rate=float(batch), seed=seed)
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class SMRRow:
    """One (workload, scenario, n) cell of the latency/throughput table."""

    workload: str
    scenario: str
    n: int
    txns: int
    committed: int
    p50: float
    p95: float
    p99: float
    wall_seconds: float
    sim_duration: float
    blocks: int
    mempool_peak: int
    engine: str = "tetrabft"
    #: Physical frames vs logical messages put on the simulated network
    #: (a VoteBatch is one frame, many messages); their per-Δ rates are
    #: the message-plane batching figures the report carries.
    frames: int = 0
    messages: int = 0

    @property
    def txns_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return float("inf")
        return self.committed / self.wall_seconds

    @property
    def messages_per_delay(self) -> float:
        if self.sim_duration <= 0:
            return 0.0
        return self.messages / (self.sim_duration / DELTA)

    @property
    def frames_per_delay(self) -> float:
        if self.sim_duration <= 0:
            return 0.0
        return self.frames / (self.sim_duration / DELTA)

    @property
    def txns_per_delay(self) -> float:
        if self.sim_duration <= 0:
            return 0.0
        return self.committed / (self.sim_duration / DELTA)

    @property
    def blocks_per_delay(self) -> float:
        if self.sim_duration <= 0:
            return 0.0
        return self.blocks / (self.sim_duration / DELTA)


def run_smr_bench(
    workload_name: str,
    scenario: str,
    n: int,
    txns: int = 400,
    batch: int = 25,
    seed: int = 0,
    horizon: float = 400.0,
    engine: str = "tetrabft",
    batching: bool = True,
) -> SMRRow:
    """One full SMR run: n replicas, one workload, one network scenario.

    ``engine`` selects the consensus engine behind the replicas (see
    :data:`repro.smr.ENGINE_NAMES`) — the default is the pipelined
    TetraBFT reference engine, wired through the
    :class:`~repro.smr.engine.ConsensusEngine` boundary.

    Message byte accounting is switched off (as in the throughput
    sweep): the measured object is the SMR pipeline, not the wire-size
    estimator.  Throughput counts a transaction as committed only once
    every live replica (the crash-recovery scenario's faulty node
    excluded) has executed it.
    """
    policy, excluded = scenario_policy(scenario, n, seed=seed)
    slots_needed = txns // batch
    # TetraBFT pipelines one slot per delay and needs slack for the
    # never-finalizing tail window; chained engines finalize each slot
    # on decision but may burn slots on empty blocks between bursts, so
    # they get an uncapped chain bounded by the horizon instead.
    max_slots = slots_needed + 40 if engine == "tetrabft" else None
    factory = engine_factory(
        engine, ProtocolConfig.create(n), max_slots=max_slots, batching=batching
    )
    sim = Simulation(policy)
    sim.metrics.messages.enabled = False
    trackers = SMRTrackers()
    replicas = [
        Replica(i, max_batch=batch, trackers=trackers, engine_factory=factory)
        for i in range(n)
    ]
    sim.add_nodes(list(replicas))
    workload = build_workload(workload_name, txns, batch, seed=seed)
    injected = workload.inject(sim, replicas)
    live = [i for i in range(n) if i not in excluded]
    throughput = trackers.throughput
    start = time.perf_counter()
    # Stop as soon as every live replica executed the whole workload —
    # the tail-window slots can never finalize, so their view-change
    # timers would otherwise idle the run out to the horizon.
    end = sim.run(
        until=horizon,
        stop_when=lambda: throughput.min_txns_applied(live) >= injected,
        stop_check_interval=64,
    )
    wall = time.perf_counter() - start
    percentiles = trackers.latency.percentiles(delta=DELTA)
    return SMRRow(
        engine=engine,
        workload=workload_name,
        scenario=scenario,
        n=n,
        txns=injected,
        committed=throughput.min_txns_applied(live),
        p50=percentiles[50],
        p95=percentiles[95],
        p99=percentiles[99],
        wall_seconds=wall,
        sim_duration=min(end, throughput.last_commit_time or end),
        blocks=throughput.min_blocks_applied(live),
        mempool_peak=throughput.peak_mempool(live),
        frames=sim.network.frames_sent,
        messages=sim.network.messages_sent,
    )


def run_smr_sweep(
    ns: tuple[int, ...] = SMR_NS,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
    scenarios: tuple[str, ...] = SMR_SCENARIOS,
    txns: int = 400,
    batch: int = 25,
) -> list[SMRRow]:
    """The full 3 workloads × 3 scenarios × |ns| cluster-size sweep."""
    return [
        run_smr_bench(workload, scenario, n, txns=txns, batch=batch)
        for workload in workloads
        for scenario in scenarios
        for n in ns
    ]


def run_smr_smoke(txns: int = 80, batch: int = 10) -> list[SMRRow]:
    """The tier-1-sized variant: n=4, every workload, every scenario."""
    return run_smr_sweep(ns=(4,), txns=txns, batch=batch)


def format_smr_report(rows: list[SMRRow]) -> str:
    return format_table(
        [
            {
                "workload": row.workload,
                "scenario": row.scenario,
                "n": row.n,
                "txns": row.txns,
                "committed": row.committed,
                "p50(Δ)": row.p50,
                "p95(Δ)": row.p95,
                "p99(Δ)": row.p99,
                "txn/s": row.txns_per_sec,
                "txn/Δ": row.txns_per_delay,
                "blk/Δ": row.blocks_per_delay,
                "msg/Δ": row.messages_per_delay,
                "frm/Δ": row.frames_per_delay,
                "mp-peak": row.mempool_peak,
            }
            for row in rows
        ],
        columns=[
            "workload",
            "scenario",
            "n",
            "txns",
            "committed",
            "p50(Δ)",
            "p95(Δ)",
            "p99(Δ)",
            "txn/s",
            "txn/Δ",
            "blk/Δ",
            "msg/Δ",
            "frm/Δ",
            "mp-peak",
        ],
        title="A4 — SMR client latency / throughput (full replica clusters)",
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(format_smr_report(run_smr_sweep()))


if __name__ == "__main__":  # pragma: no cover
    main()
