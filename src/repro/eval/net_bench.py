"""Experiment A7 — deployed clusters: real processes, real sockets.

Every experiment so far measures the protocol inside one interpreter;
this one deploys it.  Each cell spawns one OS process per replica
(:mod:`repro.net.cluster`), serializes every protocol message through
the versioned wire codec, drives an A4 transaction workload over TCP
against the cluster's client ports, and reports what deployed systems
are judged on — **wall-clock** end-to-end commit latency (submit at
the client socket → CommitAck from each replica) and sustained
transactions per second.

Scenarios:

* ``lan`` — localhost links with a small uniform injected latency
  (real localhost RTTs are tens of microseconds — far below any
  interesting Δ geometry);
* ``geo`` — the A1b geo region matrix carried over as per-link
  injected latencies, scaled by the cluster's ``time_scale``;
* ``crash`` — ``lan`` plus one replica SIGTERMed halfway through the
  workload: n=4 tolerates f=1, so the survivors must still finalize
  everything;
* ``capacity`` — the capacity-bound cell: a Δ short enough (and links
  fast enough) that replicas are CPU-bound by construction instead of
  sleeping on the pacing clock.  The reported ``busy_duty`` — summed
  replica+driver CPU seconds over elapsed wall time × usable cores —
  is the evidence: Δ-paced cells idle near 0, a capacity cell runs hot
  (the heavy grid asserts > 0.8).
* ``restart`` — the kill-and-restart cell: a durable (DiskStorage)
  cluster, one replica SIGTERMed halfway through the workload and
  respawned over its data dir at 75%.  The new process recovers its
  snapshot + WAL, rejoins, catches up on the missed suffix via peer
  state transfer, and must converge to the byte-identical state digest
  the survivors report — the restarted replica's evidence goes through
  the same SafetyAuditor as everyone else's, and the row additionally
  reports how many blocks came back from disk (``recovered_blocks``)
  versus the network.

Cross-validation is not optional: every cell's collected finalized
chains, state digests and applied-transaction logs go through the same
:class:`~repro.verification.audit.SafetyAuditor` the simulated attack
campaign uses — agreement, no-fork, hash linkage, execute-once and
replay determinism must hold over real sockets exactly as in
simulation, and ``python -m repro net`` exits nonzero if any cell
fails its audit.

``BENCH_net.json`` keeps what every run of a cell reproduces — its
identity, commit counts, kill/restart sets, audit verdicts (smoke key
``net_smoke``; the ``REPRO_HEAVY=1`` grid — n ∈ {4, 7}, every workload
× scenario, plus a cross-engine slice — under ``net_grid``).  The
wall-clock readings differ run to run, so they are printed, not
persisted; ``perf/`` is the calibrated instrument for them.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.config import repro_config
from repro.eval.report import format_table, merge_record
from repro.eval.scaling import _GEO_LATENCY, _GEO_REGIONS
from repro.eval.smr_bench import build_workload
from repro.metrics.smr_trackers import nearest_rank_percentiles
from repro.net.cluster import (
    ClusterConfig,
    NetRunResult,
    reply_metric,
    run_cluster_workload,
    schedule_from_workload,
)
from repro.verification.audit import SafetyAuditor

#: Cluster sizes of the heavy grid (each cell spawns n OS processes;
#: n=7 is the smallest size tolerating f=2).
NET_NS = (4, 7)

NET_SCENARIOS = ("lan", "geo", "crash", "capacity", "restart")

#: The link-geometry scenarios the heavy grid cross-products over
#: (``capacity`` is its own targeted slice, not a geometry).
NET_LINK_SCENARIOS = ("lan", "geo", "crash")

NET_WORKLOADS = ("uniform", "bursty", "hotkey")

#: Seconds of wall clock per protocol Δ.
TIME_SCALE = 0.05

#: Injected one-way link latency for the lan scenario, seconds.
LAN_LATENCY = 0.002

#: The capacity cell's pacing: Δ fifty times tighter than the lan
#: scenario and near-bare-metal links, so the bottleneck is codec +
#: dispatch + syscalls, not the Δ clock.  At this Δ the measured busy
#: duty cycle clears 0.8 on a single-core host (leaders burn empty
#: slots whenever the mempool idles, so the cluster is CPU-bound by
#: construction).
CAPACITY_TIME_SCALE = 0.001
CAPACITY_LATENCY = 0.0002

#: BENCH record, anchored at the repo root like the other BENCH files.
BENCH_PATH = Path(__file__).resolve().parents[3] / "BENCH_net.json"


@dataclass
class NetRow:
    """One (engine, workload, scenario, n) cell of the deployment bench."""

    engine: str
    workload: str
    scenario: str
    n: int
    txns: int
    committed: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    wall_seconds: float
    blocks: int
    killed: tuple[int, ...]
    safe: bool
    live: bool
    checks: dict[str, bool]
    #: Summed over the cluster's metrics payloads: physical frames each
    #: replica read off its peer sockets vs the logical messages inside
    #: them (one VoteBatch frame carries many votes).
    frames_in: int = 0
    messages_in: int = 0
    #: Fraction of available CPU the run burned (replicas + driver over
    #: elapsed × usable cores) — near 0 for Δ-paced cells, high when
    #: the cell is capacity-bound.
    busy_duty: float = 0.0
    #: Summed transport write counters across every replica's peer
    #: lanes: socket writes, and the frames they carried.
    flushes: int = 0
    frames_flushed: int = 0
    #: Replicas killed and respawned over their data dirs (restart cell).
    restarted: tuple[int, ...] = ()
    #: Whether every restarted replica came back, caught up, and
    #: reported the same state digest as the survivors.  Trivially true
    #: for cells that restart nothing.
    converged: bool = True
    #: Blocks the restarted replicas recovered from snapshot + WAL
    #: (as opposed to re-fetched over the network).
    recovered_blocks: int = 0
    #: Live-scraped observability columns: a MetricsRequest snapshot
    #: taken *mid-run* (while the cluster is still in consensus), so
    #: the windowed commit rate is read live rather than post-mortem.
    #: Fsyncs are summed across replicas; the others are the cluster max.
    commit_rate: float = 0.0
    view_changes: int = 0
    fsyncs: int = 0

    @property
    def txns_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.committed / self.wall_seconds

    @property
    def msgs_per_frame(self) -> float:
        if self.frames_in <= 0:
            return 0.0
        return self.messages_in / self.frames_in

    @property
    def frames_per_flush(self) -> float:
        """Physical frames per socket write — what the wakeup drain merges."""
        if self.flushes <= 0:
            return 0.0
        return self.frames_flushed / self.flushes

    @property
    def verdict(self) -> str:
        if not self.safe:
            return "UNSAFE"
        if not self.converged:
            return "UNCONVERGED"
        if self.live:
            return "safe+live"
        return "safe"


def _wall_percentiles(samples: list[float]) -> dict[int, float]:
    """Nearest-rank percentiles of wall-clock samples, in milliseconds."""
    raw = nearest_rank_percentiles(samples)
    return {p: value * 1000.0 for p, value in raw.items()}


def geo_overrides(n: int, time_scale: float) -> tuple[tuple[int, int, float], ...]:
    """The A1b geo region matrix as per-link wall-clock latencies.

    Nodes round-robin over the four regions exactly as in the
    simulated geo scenario; Δ-denominated link latencies scale by
    ``time_scale`` into seconds (jitter is left to the real network).
    """
    region = {i: _GEO_REGIONS[i % len(_GEO_REGIONS)] for i in range(n)}
    pairs = []
    for src in range(n):
        for dst in range(n):
            key = (region[src], region[dst])
            delay = _GEO_LATENCY.get(key) or _GEO_LATENCY.get((key[1], key[0]), 0.8)
            pairs.append((src, dst, delay * time_scale))
    return tuple(pairs)


def run_net_cell(
    workload_name: str,
    scenario: str,
    n: int,
    engine: str = "tetrabft",
    txns: int = 40,
    batch: int = 10,
    seed: int = 0,
    time_scale: float = TIME_SCALE,
    deadline: float = 30.0,
) -> NetRow:
    """One deployed run: n processes, one workload, one link scenario."""
    if scenario not in NET_SCENARIOS:
        raise ValueError(f"unknown net scenario {scenario!r}")
    overrides: tuple[tuple[int, int, float], ...] = ()
    latency = LAN_LATENCY
    if scenario == "geo":
        overrides = geo_overrides(n, time_scale)
        latency = 0.8 * time_scale
    elif scenario == "capacity":
        # CPU-bound by construction: the Δ clock and the links are both
        # much faster than the per-message work, so wall-clock rate
        # measures the message path, not the pacing.
        time_scale = min(time_scale, CAPACITY_TIME_SCALE)
        latency = CAPACITY_LATENCY
    kill_after = None
    restart_after = None
    data_dir = None
    cleanup_dir = False
    if scenario == "crash":
        # The highest id is never a low-slot leader: killing it stalls
        # quorums, not every proposal, matching the simulated scenario.
        kill_after = (n - 1, 0.5)
    elif scenario == "restart":
        # Same victim and kill point as the crash cell, but the cluster
        # is durable and the victim is respawned over its data dir at
        # 75% of the workload: snapshot + WAL recovery, rejoin, peer
        # catch-up for the missed suffix, byte-identical convergence.
        kill_after = (n - 1, 0.5)
        restart_after = 0.75
        root = repro_config().data_dir
        if root:
            data_dir = os.path.join(root, f"net-{workload_name}-n{n}")
        else:
            data_dir = tempfile.mkdtemp(prefix="repro-net-restart-")
            cleanup_dir = True
        # A previous run's chain in the same dir would be a *different*
        # history — recovery must start from this run's bytes only.
        os.makedirs(data_dir, exist_ok=True)
        for entry in os.listdir(data_dir):
            shutil.rmtree(os.path.join(data_dir, entry), ignore_errors=True)
    config = ClusterConfig(
        n=n,
        engine=engine,
        time_scale=time_scale,
        link_latency=latency,
        latency_overrides=overrides,
        batch=batch,
        deadline=deadline,
        data_dir=data_dir,
    )
    schedule = schedule_from_workload(build_workload(workload_name, txns, batch, seed=seed))
    result = run_cluster_workload(
        config, schedule, kill_after=kill_after, restart_after=restart_after
    )
    row = _row_from_result(engine, workload_name, scenario, n, result)
    if cleanup_dir and row.safe and row.live and row.converged:
        shutil.rmtree(data_dir, ignore_errors=True)
    return row


def _metric_sum(replies, name: str) -> float:
    return sum(reply_metric(reply, name) for reply in replies.values())


def _metric_max(replies, name: str) -> float:
    return max((reply_metric(reply, name) for reply in replies.values()), default=0.0)


def _row_from_result(
    engine: str, workload: str, scenario: str, n: int, result: NetRunResult
) -> NetRow:
    report = SafetyAuditor(expected_txns=result.injected).audit_evidence(result.evidence)
    percentiles = _wall_percentiles(result.latency_samples)
    blocks = min((reply.blocks_applied for reply in result.replies.values()), default=0)
    live = bool(report.live) and not result.unexpected_deaths
    # Convergence evidence for the restart cell: every respawned
    # replica must be back in the collected replies AND the whole
    # cluster (rejoiner included) must agree on one state digest.
    converged = True
    recovered = 0
    if result.restarted:
        digests = {reply.state_digest for reply in result.replies.values()}
        converged = all(r in result.replies for r in result.restarted) and len(digests) == 1
        recovered = int(
            sum(
                reply_metric(result.replies[r], "storage.recovered_blocks")
                for r in result.restarted
                if r in result.replies
            )
        )
    # Live observability columns come from the mid-run scrape; if the
    # scrape failed (or a cell predates it), fall back to the collect
    # replies — counters survive the fallback, windowed rates read 0.
    scraped = result.scrapes or result.replies
    return NetRow(
        engine=engine,
        workload=workload,
        scenario=scenario,
        n=n,
        txns=result.injected,
        committed=result.committed,
        p50_ms=percentiles[50],
        p95_ms=percentiles[95],
        p99_ms=percentiles[99],
        wall_seconds=result.measure_seconds,
        blocks=blocks,
        killed=result.killed,
        safe=report.safe,
        live=live,
        checks=dict(report.checks),
        frames_in=int(_metric_sum(result.replies, "net.frames_in")),
        messages_in=int(_metric_sum(result.replies, "net.messages_in")),
        busy_duty=result.busy_duty,
        flushes=int(_metric_sum(result.replies, "transport.flushes")),
        frames_flushed=int(_metric_sum(result.replies, "transport.frames_flushed")),
        restarted=result.restarted,
        converged=converged,
        recovered_blocks=recovered,
        commit_rate=_metric_max(scraped, "consensus.commit.rate"),
        view_changes=int(_metric_max(scraped, "consensus.view_changes")),
        fsyncs=int(_metric_sum(scraped, "storage.fsyncs")),
    )


def run_net_smoke(txns: int = 40, batch: int = 10) -> list[NetRow]:
    """The CI-sized slice: n=4 TetraBFT, every workload on lan, plus
    the crash cell that demonstrates f=1 fault tolerance end to end,
    the n=7 bursty cell, one cheap n=4 capacity cell so the CPU-bound
    message path is exercised on every PR, and the kill-and-restart
    cell proving snapshot+WAL recovery end to end."""
    rows = [run_net_cell(workload, "lan", 4, txns=txns, batch=batch) for workload in NET_WORKLOADS]
    rows.append(run_net_cell("uniform", "crash", 4, txns=txns, batch=batch))
    rows.append(run_net_cell("bursty", "lan", 7, txns=txns, batch=batch))
    rows.append(run_net_cell("bursty", "capacity", 4, txns=txns, batch=batch))
    rows.append(run_net_cell("uniform", "restart", 4, txns=txns, batch=batch))
    return rows


def run_net_grid(txns: int = 60, batch: int = 10) -> list[NetRow]:
    """The heavy grid: n ∈ {4, 7} × workload × link scenario for
    TetraBFT, every chained baseline on the uniform/lan slice, plus
    the capacity-bound cells at both cluster sizes."""
    rows = [
        run_net_cell(workload, scenario, n, txns=txns, batch=batch)
        for n in NET_NS
        for workload in NET_WORKLOADS
        for scenario in NET_LINK_SCENARIOS
    ]
    for engine in ("pbft", "ithotstuff", "li"):
        rows.append(run_net_cell("uniform", "lan", 4, engine=engine, txns=txns, batch=batch))
    for n in NET_NS:
        rows.append(run_net_cell("bursty", "capacity", n, txns=txns, batch=batch))
    for n in NET_NS:
        rows.append(run_net_cell("uniform", "restart", n, txns=txns, batch=batch))
    return rows


def net_record(row: NetRow) -> dict:
    """One NetRow as a BENCH_net.json cell: what every run reproduces."""
    return {
        "engine": row.engine,
        "workload": row.workload,
        "scenario": row.scenario,
        "n": row.n,
        "txns": row.txns,
        "committed": row.committed,
        "killed": list(row.killed),
        "restarted": list(row.restarted),
        "safe": row.safe,
        "live": row.live,
        "converged": row.converged,
        "checks": dict(row.checks),
    }


def write_net_records(rows: list[NetRow], key: str, path: Path = BENCH_PATH) -> None:
    merge_record(path, key, [net_record(row) for row in rows])


def format_net_report(rows: list[NetRow]) -> str:
    return format_table(
        [
            {
                "engine": row.engine,
                "workload": row.workload,
                "scenario": row.scenario,
                "n": row.n,
                "txns": row.txns,
                "committed": row.committed,
                "p50(ms)": row.p50_ms,
                "p95(ms)": row.p95_ms,
                "p99(ms)": row.p99_ms,
                "txn/s": row.txns_per_sec,
                "blk": row.blocks,
                "msg/frm": row.msgs_per_frame,
                "frm/wr": row.frames_per_flush,
                "duty": row.busy_duty,
                "commit/s": row.commit_rate,
                "vchg": row.view_changes,
                "fsync": row.fsyncs,
                "verdict": row.verdict,
            }
            for row in rows
        ],
        columns=[
            "engine",
            "workload",
            "scenario",
            "n",
            "txns",
            "committed",
            "p50(ms)",
            "p95(ms)",
            "p99(ms)",
            "txn/s",
            "blk",
            "msg/frm",
            "frm/wr",
            "duty",
            "commit/s",
            "vchg",
            "fsync",
            "verdict",
        ],
        title="A7 — deployed clusters over TCP (wall clock, audited)",
    )


def main() -> None:  # pragma: no cover - CLI entry
    if repro_config().heavy:
        rows = run_net_grid()
        key = "net_grid"
    else:
        rows = run_net_smoke()
        key = "net_smoke"
        print(
            "(smoke slice: n=4 lan + crash + capacity + restart — "
            "REPRO_HEAVY=1 for the full grid)"
        )
    print(format_net_report(rows))
    write_net_records(rows, key)
    failed = [row for row in rows if not (row.safe and row.live and row.converged)]
    if failed:
        print(
            "FAILED cells: "
            f"{[(r.engine, r.workload, r.scenario, r.n, r.verdict) for r in failed]}"
        )
        raise SystemExit(1)
    print(f"all {len(rows)} deployed cells passed the safety audit")


if __name__ == "__main__":  # pragma: no cover
    main()
