"""Deployed-cluster plumbing shared by the three socket workloads.

One place for: spawning an n-replica cluster and timing how long until
the first request can be sent (``setup_s``), the generator-side commit
observer (a commit is the (f+1)-th matching ``CommitAck``), windowed
deltas over what replicas publish in-band, end-of-run evidence
collection, and the correctness checks every deployed workload shares.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, replace

from repro.errors import SimulationError
from repro.net.client import ReplicaPool
from repro.net.cluster import ClusterConfig, cluster_processes
from repro.obs import items_to_dict
from repro.verification.audit import ReplicaEvidence, SafetyAuditor

from bench import calib, procs
from bench.stats import median, ms, percentile

#: Replicas in every deployed workload: five to six processes on two
#: cores is already the most this class of host resolves.
N = 4
#: Seconds of wall clock per protocol Δ.
TIME_SCALE = 0.05
#: Throwaway spawn→connect→StartRun cycles timed before the one the
#: run uses; ``setup_s`` is the median over all of them.
SETUP_REPEATS = 5
#: Unmeasured lead-in: connections warm, first snapshot exists.
WARMUP_SECONDS = 2.0
#: How long after the last due request a commit may still arrive
#: before the request counts as failed.
DRAIN_SECONDS = 8.0
#: Slots of chain budget per run: a slot costs at least one link delay
#: (>= 0.2 ms here) so no run of <= 60 s can exhaust it.
MAX_SLOTS = 400_000


def cluster_config(**overrides) -> ClusterConfig:
    base = ClusterConfig(n=N, time_scale=TIME_SCALE, max_slots=MAX_SLOTS, deadline=120.0)
    return replace(base, **overrides)


class TxnRecord:
    """Generator-side life of one transaction."""

    __slots__ = ("index", "txid", "due", "sent", "accepted", "first_ack", "commit", "last_ack", "acks")

    def __init__(self, index: int, txid: str, due: float) -> None:
        self.index = index
        self.txid = txid
        self.due = due
        self.sent = 0.0
        #: Gateway workload: when the 202 came back (0.0 = not yet / n.a.).
        self.accepted = 0.0
        self.first_ack = 0.0
        self.commit = 0.0
        self.last_ack = 0.0
        self.acks = 0


class CommitObserver:
    """Counts ``CommitAck``s per txid; the (f+1)-th is the commit."""

    def __init__(self) -> None:
        self.quorum = (N - 1) // 3 + 1
        self.records: dict[str, TxnRecord] = {}
        self.commit_times: list[float] = []
        self.on_commit = None
        #: node id → monotonic time of that replica's acks, per txid index
        #: — kept only for the replica named in ``watch`` (the rejoiner).
        self.watch: int | None = None
        self.watched_acks: list[tuple[float, TxnRecord]] = []

    def track(self, record: TxnRecord) -> None:
        self.records[record.txid] = record

    def on_ack(self, node_id: int, ack) -> None:
        record = self.records.get(ack.txid)
        if record is None:
            return
        now = time.monotonic()
        record.acks += 1
        record.last_ack = now
        if node_id == self.watch:
            self.watched_acks.append((now, record))
        if record.acks == 1:
            record.first_ack = now
        if record.acks == self.quorum:
            record.commit = now
            self.commit_times.append(now)
            if self.on_commit is not None:
                self.on_commit(record)


@dataclass
class Cluster:
    """A running cluster plus the generator's pool connection."""

    specs: list
    processes: list
    pool: ReplicaPool

    def pids(self) -> list[int]:
        return [p.pid for p in self.processes if p.pid is not None]


@dataclass
class Setup:
    """Wall seconds of each timed set-up, and how slow the host was
    running around them (kernel passes before and after each one)."""

    seconds: list[float]
    slowdown: float

    @property
    def setup_s(self) -> float:
        """Median set-up in reference-host seconds."""
        return median(self.seconds) / self.slowdown

    @property
    def wall_s(self) -> float:
        return median(self.seconds)


async def pool_cluster(config: ClusterConfig, stack: contextlib.ExitStack, on_ack=None) -> Cluster:
    """Spawn, connect, StartRun: the bring-up of the two direct-pool workloads."""
    specs, processes = stack.enter_context(cluster_processes(config))
    pool = ReplicaPool.from_specs(specs, time_scale=config.time_scale, on_ack=on_ack)
    stack.callback(pool.close)
    await pool.connect()
    pool.start_run()
    return Cluster(specs, processes, pool)


@contextlib.asynccontextmanager
async def running_cluster(config: ClusterConfig, bring_up):
    """``await bring_up(config, stack)`` brings the system up to where the
    first request can be sent and registers its teardown on ``stack``.
    It is run and timed :data:`SETUP_REPEATS` times; the last system is
    the one the run uses.  Yields ``(what bring_up returned, Setup)``."""
    samples: list[float] = []
    kernel = calib.Kernel()
    passes = [kernel.sample(3)]
    for attempt in range(SETUP_REPEATS - 1):
        # A durable cluster writes from its first slot on: every
        # throwaway cycle gets a data dir of its own, so the cluster the
        # run uses starts from an empty one.
        throwaway = config
        if config.data_dir is not None:
            throwaway = replace(config, data_dir=os.path.join(config.data_dir, f"setup-{attempt}"))
        with contextlib.ExitStack() as stack:
            samples.append((await _timed_bring_up(bring_up, throwaway, stack))[0])
        passes.append(kernel.sample(3))
    if config.data_dir is not None:
        config = replace(config, data_dir=os.path.join(config.data_dir, "run"))
    with contextlib.ExitStack() as stack:
        elapsed, system = await _timed_bring_up(bring_up, config, stack)
        samples.append(elapsed)
        passes.append(kernel.sample(3))
        yield system, Setup(samples, calib.slowdown(passes))


async def _timed_bring_up(bring_up, config, stack):
    """Port reservation is bind-then-close, so a port can be stolen
    before the replica binds it; one relaunch absorbs that (and is timed
    on its own)."""
    t0 = time.monotonic()
    try:
        system = await bring_up(config, stack)
    except SimulationError:
        stack.close()
        t0 = time.monotonic()
        system = await bring_up(config, stack)
    return time.monotonic() - t0, system


# -- in-band metrics -----------------------------------------------------------


def items_of(reply) -> dict[str, float]:
    """The obs payload of a ``MetricsReply`` (``items``) or ``CollectReply`` (``metrics``)."""
    return items_to_dict(getattr(reply, "items", None) or getattr(reply, "metrics", ()))


class ScrapeWindow:
    """Per-replica counter deltas between in-band scrapes.

    A replica that was killed and respawned counts again from zero; what
    it had counted up to the last scrape before the kill is kept.
    """

    def __init__(self) -> None:
        self.first: dict[int, dict[str, float]] = {}
        self.last: dict[int, dict[str, float]] = {}
        self._closed: dict[str, float] = {}
        self.queue_lag_max = 0.0
        #: (Σ replica CPU seconds, Σ blocks) at each scrape.
        self._progress: list[tuple[float, float]] = []

    def add(self, scrape: dict[int, dict[str, float]]) -> None:
        for node_id, items in scrape.items():
            last = self.last.get(node_id)
            if last is not None and items.get("process.run_seconds", 0.0) < last.get(
                "process.run_seconds", 0.0
            ):
                first = self.first[node_id]
                for name, value in last.items():
                    self._closed[name] = self._closed.get(name, 0.0) + value - first.get(name, 0.0)
                self.first[node_id] = {}
            self.first.setdefault(node_id, items)
            self.last[node_id] = items
            self.queue_lag_max = max(self.queue_lag_max, items.get("transport.queue_lag", 0.0))
        self._progress.append((self.delta("process.cpu_seconds"), self.delta("consensus.blocks")))

    def late_over_early(self) -> float:
        """Replica CPU per finalized block over the last scrape interval
        divided by the same over the first — the deployed stand-in for
        the simulator's per-slot span ratio (0.0 with under three scrapes)."""
        if len(self._progress) < 3:
            return 0.0
        (c0, b0), (c1, b1) = self._progress[0], self._progress[1]
        (c2, b2), (c3, b3) = self._progress[-2], self._progress[-1]
        if b1 <= b0 or b3 <= b2 or c1 <= c0:
            return 0.0
        return ((c3 - c2) / (b3 - b2)) / ((c1 - c0) / (b1 - b0))

    def delta(self, name: str) -> float:
        """Σ over replicas of what ``name`` counted inside the window."""
        return self._closed.get(name, 0.0) + sum(
            last.get(name, 0.0) - self.first[node_id].get(name, 0.0)
            for node_id, last in self.last.items()
        )

    def mean_gauge(self, name: str) -> float:
        values = [items[name] for items in self.last.values() if name in items]
        return sum(values) / len(values) if values else 0.0


async def scrape_pool(pool: ReplicaPool) -> dict[int, dict[str, float]]:
    replies = await pool.scrape(timeout=5.0)
    return {node_id: items_of(reply) for node_id, reply in replies.items()}


class CpuWindow:
    """CPU seconds of a set of pids between two ``/proc`` readings."""

    def __init__(self, pids: list[int]) -> None:
        self._t0 = {pid: procs.cpu_seconds(pid) for pid in pids}
        self._closed: float = 0.0

    def retire(self, pid: int) -> None:
        """Read a process one last time (just before it is killed)."""
        self._closed += procs.cpu_seconds(pid) - self._t0.pop(pid, 0.0)

    def admit(self, pid: int) -> None:
        self._t0[pid] = procs.cpu_seconds(pid)

    def seconds(self) -> float:
        return self._closed + sum(procs.cpu_seconds(pid) - t0 for pid, t0 in self._t0.items())


# -- evidence and checks ---------------------------------------------------------


def evidence_of(replies) -> list[ReplicaEvidence]:
    return [
        ReplicaEvidence(
            node_id=reply.node_id,
            chain=tuple(reply.chain),
            state_digest=reply.state_digest,
            applied_txids=tuple(reply.applied_txids),
        )
        for reply in sorted(replies.values(), key=lambda r: r.node_id)
    ]


def check_evidence(evidence: list[ReplicaEvidence], committed: list[str]) -> dict[str, bool]:
    """The checks every deployed workload shares.

    * every collected chain/digest/applied log replays clean through the
      ``SafetyAuditor``;
    * every replica answered the collect;
    * every txid the generator saw reach f+1 acks is in every replica's
      applied log.
    """
    report = SafetyAuditor().audit_evidence(evidence)
    checks = {f"audit.{name}": ok for name, ok in report.checks.items()}
    checks["all_replicas_collected"] = len(evidence) == N
    committed_set = set(committed)
    checks["committed_in_every_applied_log"] = bool(evidence) and all(
        committed_set <= set(ev.applied_txids) for ev in evidence
    )
    return checks


def chain_shape(evidence: list[ReplicaEvidence]) -> tuple[int, int, int]:
    """(blocks, empty blocks, txns) of the longest collected chain."""
    if not evidence:
        return 0, 0, 0
    chain = max((ev.chain for ev in evidence), key=len)
    empty = sum(1 for block in chain if not block.payload)
    txns = sum(len(block.payload) for block in chain if isinstance(block.payload, tuple))
    return len(chain), empty, txns


# -- metric assembly -------------------------------------------------------------


def latency_metrics(records: list[TxnRecord]) -> dict[str, float]:
    """Commit latency from the instant each request was *due*."""
    done = [r for r in records if r.commit]
    latencies = [ms(r.commit - r.due) for r in done]
    return {
        "commit_p50_ms": percentile(latencies, 50),
        "commit_p95_ms": percentile(latencies, 95),
        "commit_p99_ms": percentile(latencies, 99),
        "client.first_ack_ms": median([ms(r.first_ack - r.due) for r in done]),
        "client.ack_spread_ms": median([ms(r.last_ack - r.commit) for r in done]),
        "latency_samples": float(len(latencies)),
    }


def goodput(measured: list[TxnRecord], start: float) -> float:
    """Open-loop throughput: the requests due in the window that
    committed, over the time from the window's start to the last of
    their commits.  Pinned near the offered rate while the system keeps
    up; a backlog stretches the denominator."""
    done = [r.commit for r in measured if r.commit]
    if not done:
        return 0.0
    return len(done) / (max(done) - start)


def stall_count(commit_times: list[float], threshold: float) -> int:
    ordered = sorted(commit_times)
    return sum(1 for a, b in zip(ordered, ordered[1:]) if b - a > threshold)


def transport_metrics(window: ScrapeWindow, committed: int, replica_cpu: float) -> dict[str, float]:
    """Per-txn transport and engine-input counts from the scrape deltas."""
    txns = max(committed, 1)
    frames = window.delta("transport.frames_flushed")
    flushes = window.delta("transport.flushes")
    blocks = window.delta("consensus.blocks")
    slots = max(blocks / max(len(window.last), 1), 1.0)
    return {
        "transport.frames_per_txn": frames / txns,
        "transport.bytes_per_txn": window.delta("transport.bytes_flushed") / txns,
        "transport.flushes_per_txn": flushes / txns,
        "transport.frames_per_flush": frames / flushes if flushes else 0.0,
        "transport.queue_lag_max": window.queue_lag_max,
        "transport.held_us_per_txn": window.delta("transport.held_us") / txns,
        "slots_per_txn": slots / txns,
        "commits": float(committed),
        "multishot.late_over_early_cost": window.late_over_early(),
        "multishot.msgs_per_slot": window.delta("net.messages_in") / slots,
        "multishot.frames_per_slot": window.delta("net.frames_in") / slots,
        "obs.trace.submit_to_propose_ms": ms(window.mean_gauge("trace.submit_to_propose.mean")),
        "obs.trace.propose_to_finalize_ms": ms(window.mean_gauge("trace.propose_to_finalize.mean")),
        "storage.fsyncs_per_block": window.delta("storage.fsyncs") / blocks if blocks else 0.0,
        "storage.wal_bytes_per_txn": window.delta("storage.wal_bytes") / txns,
        "consensus.view_changes": window.delta("consensus.view_changes"),
        "replica_cpu_seconds": replica_cpu,
    }


def finalize_to_ack_ms(values: dict[str, float], measured: list[TxnRecord], admit_ms: float = 0.0) -> float:
    """What is left of the generator-side median sent → commit after the
    gateway's admit (if any) and the replicas' two scraped stages."""
    return max(
        0.0,
        median([ms(r.commit - r.sent) for r in measured if r.commit])
        - admit_ms
        - values["obs.trace.submit_to_propose_ms"]
        - values["obs.trace.propose_to_finalize_ms"],
    )


def usable_cores() -> int:
    return os.cpu_count() or 1


def record_generator_spans(tracer, records) -> None:
    """The generator-side chain ``due → sent → (202) → first_ack →
    commit → last_ack`` of every committed request, as spans that share
    the request's index."""
    names = {
        label: tracer.name(label)
        for label in (
            "gen.request",
            "gen.due_to_sent",
            "gateway.sent_to_202",
            "client.sent_to_first_ack",
            "client.first_ack_to_commit",
            "client.commit_to_last_ack",
        )
    }
    for r in records:
        if not r.commit:
            continue
        root = tracer.point(names["gen.request"], r.due, r.last_ack, r.index)
        tracer.point(names["gen.due_to_sent"], r.due, r.sent, r.index, root)
        if r.accepted:
            tracer.point(names["gateway.sent_to_202"], r.sent, r.accepted, r.index, root)
        tracer.point(names["client.sent_to_first_ack"], r.sent, r.first_ack, r.index, root)
        tracer.point(names["client.first_ack_to_commit"], r.first_ack, r.commit, r.index, root)
        tracer.point(names["client.commit_to_last_ack"], r.commit, r.last_ack, r.index, root)
