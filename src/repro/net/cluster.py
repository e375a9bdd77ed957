"""Multiprocess cluster launcher and workload driver.

:func:`run_cluster_workload` is the one-call deployment run the A7
experiment and the tests use: it spawns one OS process per replica
(:mod:`repro.net.replica_main`), connects to every replica's client
port, drives a timestamped transaction schedule over TCP, measures
wall-clock submit→execute latency from commit acknowledgements, and
finally collects every surviving replica's finalized chain, state
digest and applied-transaction log — the evidence the
:class:`~repro.verification.audit.SafetyAuditor` replays.

All client-side frame handling (connections, ack correlation, collect)
lives in :mod:`repro.net.client` — the same repository layer the
gateway service consumes — so this module is pure orchestration:
process lifecycle, schedule pacing, fault injection, measurement
windows.

Fault injection is first-class: ``kill_after`` terminates one replica
(SIGTERM, no goodbye) once a fraction of the workload has been
submitted, which is how the bench demonstrates that an n=4 deployment
finalizes through the loss of f=1 replica over real sockets.

The chain budget note: over sockets the pipeline advances one slot per
*actual* link delay, not per Δ, so leaders burn empty slots whenever
the mempool idles.  The launcher therefore gives TetraBFT a chain
budget sized to the whole run (slots are cheap — per-slot state is
pruned behind the finalized tip) instead of the simulator's tight
``slots_needed + slack`` sizing.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import socket
import time
from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError, SimulationError
from repro.net.client import AckCorrelator, ReplicaPool
from repro.net.codec import CollectReply, MetricsReply, StartRun
from repro.net.replica_main import ReplicaSpec, run_replica
from repro.smr.engine import ENGINE_NAMES
from repro.smr.mempool import Transaction
from repro.verification.audit import ReplicaEvidence


def reply_metric(reply, name: str, default: float = 0.0) -> float:
    """One named value out of a reply's obs-metrics payload.

    Works over both :class:`CollectReply` (``.metrics``) and
    :class:`MetricsReply` (``.items``); absent names — an older
    replica, a metric the cell never exercised — read as ``default``.
    """
    items = getattr(reply, "metrics", None)
    if items is None:
        items = getattr(reply, "items", ())
    for key, value in items:
        if key == name:
            return float(value)
    return default


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of one deployed cluster run."""

    n: int
    engine: str = "tetrabft"
    host: str = "127.0.0.1"
    #: Seconds of wall clock per protocol Δ (timers scale by this).
    time_scale: float = 0.05
    #: Injected one-way link latency in seconds (scalar default).
    link_latency: float = 0.002
    #: Per-(src, dst) latency overrides in seconds.
    latency_overrides: tuple[tuple[int, int, float], ...] = ()
    batch: int = 10
    #: Chain budget for engines that need one (None = engine default /
    #: unbounded for the chained baselines); sized by the launcher when
    #: left at 0.
    max_slots: int | None = 0
    #: Hard wall-clock deadline for the whole run, seconds.
    deadline: float = 30.0
    #: Durability root: each replica persists under
    #: ``<data_dir>/replica-<id>``.  ``None`` (default) runs every
    #: replica on MemoryStorage — no persistence, no restart support.
    data_dir: str | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"cluster needs n >= 1, got {self.n}")
        if self.engine not in ENGINE_NAMES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; known: {', '.join(ENGINE_NAMES)}"
            )
        if self.time_scale <= 0:
            raise ConfigurationError("time_scale must be positive")


@dataclass
class NetRunResult:
    """Everything one deployed run produced."""

    injected: int
    #: Wall-clock submit→execute latency samples, one per
    #: (replica, transaction) observation — the simulator's metric.
    latency_samples: list[float]
    #: txids acked per replica id.
    acked: dict[int, set[str]]
    evidence: list[ReplicaEvidence]
    replies: dict[int, CollectReply]
    killed: tuple[int, ...]
    #: Replicas that died without being killed on purpose.
    unexpected_deaths: tuple[int, ...]
    #: First submit → last required ack, seconds (the measurement
    #: window txns/sec is computed over).
    measure_seconds: float
    #: Whether every live replica acked the full workload in time.
    completed: bool
    #: Driver-process CPU seconds over the drive (submit + ack + collect).
    driver_cpu_seconds: float = 0.0
    #: Wall-clock seconds from first submit to collect completion.
    elapsed_seconds: float = 0.0
    #: Replicas killed and then restarted from their data dirs.
    restarted: tuple[int, ...] = ()
    #: Mid-run obs scrape: node id → :class:`MetricsReply`, taken while
    #: the cluster was still in consensus (just after the workload was
    #: fully acked, before any collect).
    scrapes: dict[int, MetricsReply] = field(default_factory=dict)

    @property
    def busy_duty(self) -> float:
        """Fraction of available CPU the run actually burned.

        ``(Σ replica cpu + driver cpu) / (elapsed × usable cores)``,
        where usable cores is ``min(processes, os.cpu_count())`` — on a
        saturated single-core host this reads ~1.0, and a Δ-paced cell
        (everyone sleeping on timers) reads near 0.  The capacity-bound
        bench cells assert this is high, i.e. the pipe, not the pacing
        clock, is the bottleneck.
        """
        if self.elapsed_seconds <= 0:
            return 0.0
        total_cpu = self.driver_cpu_seconds + sum(
            reply_metric(reply, "process.cpu_seconds") for reply in self.replies.values()
        )
        lanes = min(len(self.replies) + 1, os.cpu_count() or 1)
        return total_cpu / (self.elapsed_seconds * max(lanes, 1))

    @property
    def committed(self) -> int:
        """Transactions executed by *every* live replica."""
        live = [n for n in self.acked if n not in self.killed]
        if not live:
            return 0
        return min(len(self.acked[n]) for n in live)

    @property
    def txns_per_sec(self) -> float:
        if self.measure_seconds <= 0:
            return 0.0
        return self.committed / self.measure_seconds


def allocate_ports(count: int, host: str = "127.0.0.1") -> list[int]:
    """Reserve ``count`` distinct free TCP ports (bind-0, read, close)."""
    sockets, ports = [], []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
            ports.append(sock.getsockname()[1])
    finally:
        for sock in sockets:
            sock.close()
    return ports


def build_specs(config: ClusterConfig) -> list[ReplicaSpec]:
    """Allocate ports and lay out one spec per replica process."""
    ports = allocate_ports(2 * config.n, config.host)
    peer_ports = ports[: config.n]
    client_ports = ports[config.n :]
    specs = []
    for node_id in range(config.n):
        peer_addrs = tuple(
            (other, config.host, peer_ports[other])
            for other in range(config.n)
            if other != node_id
        )
        client_addrs = tuple(
            (other, config.host, client_ports[other])
            for other in range(config.n)
            if other != node_id
        )
        data_dir = None
        if config.data_dir is not None:
            data_dir = os.path.join(config.data_dir, f"replica-{node_id}")
        specs.append(
            ReplicaSpec(
                node_id=node_id,
                n=config.n,
                engine=config.engine,
                host=config.host,
                peer_port=peer_ports[node_id],
                client_port=client_ports[node_id],
                peer_addrs=peer_addrs,
                time_scale=config.time_scale,
                latency_default=config.link_latency,
                latency_pairs=config.latency_overrides,
                max_slots=config.max_slots,
                batch=config.batch,
                client_addrs=client_addrs,
                data_dir=data_dir,
            )
        )
    return specs


def sized_max_slots(config: ClusterConfig, injected: int) -> int | None:
    """Chain budget covering the whole wall-clock run.

    Chained baselines run unbounded (slots finalize eagerly); TetraBFT
    needs a finite budget, sized so empty-slot burn during mempool idle
    can never exhaust it: one slot costs at least one link delay, so
    ``deadline / link_latency`` bounds the slots any run can reach.
    """
    if config.engine != "tetrabft":
        return None
    per_slot = max(config.link_latency, 1e-3)
    burn_budget = int(config.deadline / per_slot) + 1
    return max(injected, 1) + 64 + burn_budget


@contextlib.contextmanager
def cluster_processes(config: ClusterConfig):
    """Spawn one OS process per replica; reap them all on exit.

    Yields ``(specs, processes)``.  The gateway experiment uses this
    directly (its cluster outlives any single workload schedule); the
    bench driver wraps it in :func:`run_cluster_workload`.
    """
    ctx = multiprocessing.get_context("spawn")
    specs = build_specs(config)
    processes = [ctx.Process(target=run_replica, args=(spec,), daemon=True) for spec in specs]
    for process in processes:
        process.start()
    try:
        yield specs, processes
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=5.0)


async def _drive(
    config: ClusterConfig,
    specs: list[ReplicaSpec],
    schedule: list[tuple[float, Transaction]],
    processes: list,
    kill_after: tuple[int, float] | None,
    restart_after: float | None = None,
) -> NetRunResult:
    correlator = AckCorrelator()
    correlator.track_nodes(range(config.n))
    progress = asyncio.Event()

    def on_ack(node_id: int, ack) -> None:
        if correlator.record_ack(node_id, ack, time.monotonic()) is not None:
            progress.set()

    def on_death(node_id: int) -> None:
        progress.set()

    pool = ReplicaPool.from_specs(
        specs, time_scale=config.time_scale, on_ack=on_ack, on_death=on_death
    )
    await pool.connect()
    drive_cpu0 = time.process_time()
    pool.start_run()

    killed: list[int] = []
    restarted: list[int] = []
    kill_at_index = None
    restart_at_index = None
    if kill_after is not None:
        kill_at_index = max(1, int(len(schedule) * kill_after[1]))
        if restart_after is not None:
            restart_at_index = max(kill_at_index + 1, int(len(schedule) * restart_after))

    def kill_victim() -> None:
        victim = kill_after[0]
        processes[victim].terminate()
        killed.append(victim)
        pool.exclude(victim)

    async def restart_victim() -> None:
        """Respawn the killed replica over its data dir and readmit it.

        The new process recovers its WAL before opening any
        socket, rejoins the peer mesh (peer transports have been
        retrying its address since the kill), and needs its own
        StartRun — the original broadcast predates its birth.
        """
        victim = kill_after[0]
        await asyncio.to_thread(processes[victim].join, 5.0)
        ctx = multiprocessing.get_context("spawn")
        process = ctx.Process(target=run_replica, args=(specs[victim],), daemon=True)
        process.start()
        processes[victim] = process
        await pool.readmit(victim)
        pool.send_to(victim, StartRun())
        restarted.append(victim)

    t0 = time.monotonic()
    first_submit = None
    for index, (at, txn) in enumerate(schedule):
        if kill_at_index is not None and index == kill_at_index:
            kill_victim()
        if restart_at_index is not None and index == restart_at_index and killed:
            await restart_victim()
        wait = t0 + at * config.time_scale - time.monotonic()
        if wait > 0:
            await asyncio.sleep(wait)
        now = time.monotonic()
        if first_submit is None:
            first_submit = now
        correlator.record_submit(txn.txid, now)
        pool.submit(txn)
    # Kill scheduled past the end of the workload (fraction >= 1).
    if kill_at_index is not None and kill_at_index >= len(schedule) and not killed:
        kill_victim()
    if restart_at_index is not None and killed and not restarted:
        await restart_victim()

    deadline = t0 + config.deadline
    completed = False
    # A readmitted replica re-acks only what it executes from its
    # restart onward (its recovered prefix was tracker-suppressed), so
    # workload completion is judged on the never-killed replicas; the
    # rejoiner's convergence is checked separately below.
    required = pool.live - set(killed)
    while time.monotonic() < deadline:
        if correlator.all_acked(required):
            completed = True
            break
        progress.clear()
        remaining = deadline - time.monotonic()
        try:
            await asyncio.wait_for(progress.wait(), timeout=min(0.2, remaining))
        except asyncio.TimeoutError:
            pass

    # Mid-run metrics snapshot: the cluster is still in consensus (no
    # collect has been sent), so windowed instruments — commit rate,
    # queue lag, mempool depth — are read live, not post-mortem.  A
    # scrape failure must never fail a run that measured fine.
    scrapes: dict[int, MetricsReply] = {}
    try:
        scrapes = await pool.scrape(timeout=min(5.0, config.deadline / 4))
    except (OSError, ConnectionError, asyncio.TimeoutError):
        pass

    if restarted and completed:
        # Convergence wait: poll the rejoiner's snapshot until it has
        # applied the full workload (recovery replay + catch-up), or
        # the deadline calls it a failure to converge.
        while time.monotonic() < deadline:
            snaps = await pool.snapshot(timeout=min(2.0, config.deadline / 4))
            reply = snaps.get(restarted[0])
            if reply is not None and correlator.expected <= set(reply.applied_txids):
                break
            await asyncio.sleep(0.1)

    # Collect evidence from every replica still standing.
    replies = await pool.collect()
    evidence = [
        ReplicaEvidence(
            node_id=reply.node_id,
            chain=tuple(reply.chain),
            state_digest=reply.state_digest,
            applied_txids=tuple(reply.applied_txids),
        )
        for reply in replies.values()
    ]
    pool.close()
    unexpected = tuple(
        sorted(
            node_id
            for node_id in range(config.n)
            if node_id not in killed and node_id not in replies
        )
    )
    measure_end = correlator.last_ack_time or time.monotonic()
    measure_start = first_submit if first_submit is not None else t0
    driver_cpu = time.process_time() - drive_cpu0
    elapsed = time.monotonic() - t0
    return NetRunResult(
        injected=len(correlator.expected),
        latency_samples=correlator.latency_samples,
        acked=correlator.acked,
        evidence=sorted(evidence, key=lambda ev: ev.node_id),
        replies=replies,
        killed=tuple(killed),
        unexpected_deaths=unexpected,
        measure_seconds=max(measure_end - measure_start, 0.0),
        completed=completed,
        driver_cpu_seconds=driver_cpu,
        elapsed_seconds=elapsed,
        restarted=tuple(restarted),
        scrapes=scrapes,
    )


def run_cluster_workload(
    config: ClusterConfig,
    schedule: list[tuple[float, Transaction]],
    kill_after: tuple[int, float] | None = None,
    restart_after: float | None = None,
) -> NetRunResult:
    """One full deployment run: spawn, drive, measure, collect, reap.

    ``schedule`` is (submit time in Δ, transaction) pairs, the same
    shape the simulated workloads yield; submit times are scaled by
    ``config.time_scale`` into wall clock.  ``kill_after=(node, frac)``
    SIGTERMs ``node`` once ``frac`` of the schedule has been submitted.
    ``restart_after=frac`` respawns the killed replica over its data
    dir once ``frac`` of the schedule has been submitted — requires
    ``kill_after`` and a durable cluster (``config.data_dir``).
    """
    if kill_after is not None and not 0 <= kill_after[0] < config.n:
        raise ConfigurationError(f"kill victim {kill_after[0]} outside 0..{config.n - 1}")
    if restart_after is not None:
        if kill_after is None:
            raise ConfigurationError("restart_after requires kill_after")
        if config.data_dir is None:
            raise ConfigurationError("restart_after requires a durable cluster (data_dir)")
        if restart_after <= kill_after[1]:
            raise ConfigurationError(
                f"restart fraction {restart_after} must come after kill fraction {kill_after[1]}"
            )
    if config.max_slots == 0:
        config = replace(config, max_slots=sized_max_slots(config, len(schedule)))
    # Port reservation is bind-then-close, so another process can steal
    # a port between reservation and the replica's own bind.  A cluster
    # that never opens its client ports raises before anything was
    # measured; one relaunch with freshly reserved ports absorbs it.
    for attempt in (0, 1):
        with cluster_processes(config) as (specs, processes):
            try:
                return asyncio.run(
                    _drive(config, specs, schedule, processes, kill_after, restart_after)
                )
            except SimulationError:
                if attempt == 1:
                    raise
    raise AssertionError("unreachable")  # pragma: no cover


def schedule_from_workload(workload) -> list[tuple[float, Transaction]]:
    """Materialize a simulated workload's (time, txn) stream for the wire."""
    return list(workload.transactions())
