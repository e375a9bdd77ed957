"""``sim-chain-n16`` — the engine workload.

The ``sim/`` scheduler drives 16 ``Replica``s over the TetraBFT engine
with synchronous delays and a uniform stream of ``BATCH`` transactions
per Δ, to full commit.  Only ``core``/``multishot``/``quorums``/``smr``/
``sim`` do work: codec, transport, storage and gateway are absent, so
an engine or execution gain shows here and a wire-path gain must show
nothing.  n=16 makes the O(n²) vote handling dominate, and a chain of
thousands of slots (the recorded cells stop at 8) makes per-slot costs
that grow with chain height visible.

The work is fixed — ``SLOTS_PER_SECOND × seconds`` slots — and every
duration is read on the process's **CPU clock**: the run is one
CPU-bound thread, and on a shared host the CPU clock is the one that
does not measure the neighbours.  Counts are exact functions of the
virtual time reached, and are checked against :mod:`bench.model` at
every chunk boundary.
"""

from __future__ import annotations

import os
import time
from time import process_time

from repro.core import ProtocolConfig
from repro.metrics.smr_trackers import SMRTrackers
from repro.sim import Simulation
from repro.sim.runner import SimNode
from repro.smr import Replica, engine_factory
from repro.storage.api import MemoryStorage
from repro.verification.audit import SafetyAuditor
from repro.workloads import UniformWorkload

from bench import calib, model, procs
from bench.result import RunResult
from bench.stats import median, ms, percentile

NAME = "sim-chain-n16"
N = 16
BATCH = 10
#: Chain length per requested second: 160 slots/s is what this engine
#: sustains at n=16 on one unstolen core averaged over a 2,000-slot
#: chain, so ``--seconds`` is roughly the run's CPU time.
SLOTS_PER_SECOND = 160
#: Virtual delays per chunk; counters are snapshotted between chunks.
CHUNK = 20
#: Delays past the last proposal by which every transaction executed.
DRAIN_DELAYS = 8
SETUP_REPEATS = 5
#: Every this-many-th transaction carries a CPU-clock latency sample.
LATENCY_SAMPLE_EVERY = 8
#: Slots the traced pass first runs untraced, to price the tracing.
OVERHEAD_PREFIX_SLOTS = 200
#: Wall-clock cap as a multiple of ``seconds``: a host that delivers
#: under a fifth of a core ends the run early (and says so).
WALL_CAP_FACTOR = 7.0


class ClockTrackers(SMRTrackers):
    """The trackers seam, reading the CPU clock at submit and at the
    (f+1)-th replica's commit for a sample of the transactions."""

    def __init__(self, sampled: set[str], quorum: int) -> None:
        super().__init__()
        self._sampled = sampled
        self._quorum = quorum
        self._submit: dict[str, float] = {}
        self._acks: dict[str, int] = {}
        self.latencies: list[float] = []

    def record_submit(self, txid: str, time: float) -> None:
        super().record_submit(txid, time)
        if txid in self._sampled and txid not in self._submit:
            self._submit[txid] = process_time()

    def record_commit(self, node: int, txid: str, time: float) -> None:
        super().record_commit(node, txid, time)
        if txid in self._sampled:
            acks = self._acks.get(txid, 0) + 1
            self._acks[txid] = acks
            if acks == self._quorum:
                self.latencies.append(process_time() - self._submit[txid])


# -- proxies at constructor-argument seams (traced pass only) --------------------


class TracedNode(SimNode):
    """What the scheduler delivers to: ``sim.deliver`` around the replica."""

    def __init__(self, replica: Replica, tracer) -> None:
        self.node_id = replica.node_id
        self._replica = replica
        self._tracer = tracer
        self._deliver = tracer.name("sim.deliver")

    def start(self, ctx) -> None:
        self._replica.start(TracedContext(ctx, self._tracer))

    def receive(self, sender: int, message: object) -> None:
        tracer = self._tracer
        tracer.begin(self._deliver, getattr(message, "slot", -1))
        self._replica.receive(sender, message)
        tracer.finish()


class TracedContext:
    """``NodeContext`` proxy: spans around what a node sends."""

    def __init__(self, inner, tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self._broadcast = tracer.name("ctx.broadcast")
        self.node_id = inner.node_id
        self.set_timer = inner.set_timer
        self.report_decision = inner.report_decision
        self.report_view_entry = inner.report_view_entry
        self.report_storage = inner.report_storage
        self.trace = inner.trace

    @property
    def now(self) -> float:
        return self._inner.now

    def broadcast(self, message: object) -> None:
        self._tracer.begin(self._broadcast)
        self._inner.broadcast(message)
        self._tracer.finish()

    def send(self, dst: int, message: object) -> None:
        self._tracer.begin(self._broadcast)
        self._inner.send(dst, message)
        self._tracer.finish()


class TracedEngine:
    """``ConsensusEngine`` proxy: ``multishot.receive`` around the engine."""

    def __init__(self, engine, tracer) -> None:
        self._engine = engine
        self._tracer = tracer
        self._receive = tracer.name("multishot.receive")
        self.node_id = engine.node_id

    def receive(self, sender: int, message: object) -> None:
        tracer = self._tracer
        tracer.begin(self._receive, getattr(message, "slot", -1))
        self._engine.receive(sender, message)
        tracer.finish()

    def __getattr__(self, name: str):
        return getattr(self._engine, name)


def traced_factory(inner, tracer):
    """``EngineFactory`` proxy: spans around the replica's two hooks."""
    make_payload = tracer.name("smr.make_payload")
    execute = tracer.name("smr.execute")

    def build(node_id, payload_fn, on_finalize):
        def traced_payload(slot, parent):
            tracer.begin(make_payload, slot)
            try:
                return payload_fn(slot, parent)
            finally:
                tracer.finish()

        def traced_finalize(block):
            tracer.begin(execute, block.slot)
            on_finalize(block)
            tracer.finish()

        return TracedEngine(inner(node_id, traced_payload, traced_finalize), tracer)

    return build


class TracedStorage:
    """``ReplicaStorage`` proxy: a span around the per-block hook.  Over
    ``MemoryStorage`` (the sim persists nothing) the span is the cost of
    the hook itself; the layer tape puts a real ``DiskStorage`` behind it."""

    def __init__(self, inner, tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self._name = tracer.name("storage.block_executed")

    def block_executed(self, block, replica) -> None:
        self._tracer.begin(self._name, block.slot)
        self._inner.block_executed(block, replica)
        self._tracer.finish()

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


# -- the run ---------------------------------------------------------------------


def build(seed: int, slots: int, tracer=None):
    """A simulation loaded with the whole workload, ready to run."""
    txns = slots * BATCH
    factory = engine_factory("tetrabft", ProtocolConfig.create(N), max_slots=slots + 40)
    sampled = {f"uni-{seed}-{k}" for k in range(0, txns, LATENCY_SAMPLE_EVERY)}
    trackers = ClockTrackers(sampled, quorum=(N - 1) // 3 + 1)
    sim = Simulation()
    sim.metrics.messages.enabled = False
    if tracer is None:
        replicas = [
            Replica(i, max_batch=BATCH, trackers=trackers, engine_factory=factory)
            for i in range(N)
        ]
        sim.add_nodes(list(replicas))
    else:
        factory = traced_factory(factory, tracer)
        replicas = [
            Replica(
                i,
                max_batch=BATCH,
                trackers=trackers,
                engine_factory=factory,
                storage=TracedStorage(MemoryStorage(), tracer),
            )
            for i in range(N)
        ]
        sim.add_nodes([TracedNode(replica, tracer) for replica in replicas])
    injected = UniformWorkload(count=txns, rate=float(BATCH), seed=seed).inject(sim, replicas)
    return sim, replicas, trackers, injected


def run(seed: int, seconds: float, tracer=None) -> RunResult:
    result = RunResult(NAME, seed, seconds, tracer is not None)
    slots = max(CHUNK, int(SLOTS_PER_SECOND * seconds))
    horizon = slots + DRAIN_DELAYS

    setups = []
    calibration = calib.Kernel()
    kernel = [calibration.sample(2)]
    for attempt in range(SETUP_REPEATS):
        last = attempt == SETUP_REPEATS - 1
        t0 = process_time()
        sim, replicas, trackers, injected = build(seed, slots, tracer if last else None)
        setups.append(process_time() - t0)
        kernel.append(calibration.sample(2))
    setup_slowdown = calib.slowdown(kernel)
    # The run's passes: the one just before its first chunk, then one
    # after every chunk.
    kernel = kernel[-1:]

    overhead_prefix = None
    if tracer is not None:
        # The same first slots once without the proxies: what tracing costs.
        prefix = min(OVERHEAD_PREFIX_SLOTS, horizon)
        plain, *_rest = build(seed, slots)
        t0 = process_time()
        plain.run(until=float(prefix), max_events=None)
        overhead_prefix = (prefix, process_time() - t0)

    live = list(range(N))
    throughput = trackers.throughput
    network = sim.network
    wall_cap = time.monotonic() + WALL_CAP_FACTOR * seconds
    # One row per chunk boundary: virtual time, CPU seconds so far,
    # finalized slots, messages, frames, events, and the tracer's
    # running totals.
    rows = []
    checks = result.checks
    checks["message_count_equals_model"] = True
    checks["finalized_slots_equal_model"] = True
    raw_cpu = 0.0
    wall0 = time.monotonic()
    steal0 = procs.steal_seconds()
    at = 0
    while at < horizon:
        at = min(at + CHUNK, horizon)
        t0 = process_time()
        sim.run(until=float(at), max_events=None)
        spent = process_time() - t0
        kernel.append(calibration.sample())
        raw_cpu += spent
        finalized = min(len(r.consensus.chain.finalized) for r in replicas)
        want_msgs, want_frames = model.sends_by(at, N, slots + 40)
        if (network.messages_sent, network.frames_sent) != (want_msgs, want_frames):
            checks["message_count_equals_model"] = False
            result.notes.append(
                f"waste-or-bug at t={at}Δ: measured {network.messages_sent} msgs / "
                f"{network.frames_sent} frames, model {want_msgs} / {want_frames}"
            )
        if finalized != model.finalized_by(at, slots + 40):
            checks["finalized_slots_equal_model"] = False
        rows.append(
            (at, raw_cpu, finalized, network.messages_sent, network.frames_sent,
             sim.scheduler.events_fired, tracer.snapshot() if tracer else None)
        )
        if time.monotonic() > wall_cap and at < horizon:
            result.notes.append(
                f"stopped at t={at}Δ of {horizon}Δ: the host delivered too little CPU "
                f"to finish inside {WALL_CAP_FACTOR:g}x the requested seconds"
            )
            break
    wall = time.monotonic() - wall0
    # One correction for the whole run: interference comes in bursts of
    # milliseconds, so only the mean over every pass interleaved with the
    # chunks says how slow the host was while the chunks ran.
    run_slowdown = calib.slowdown(kernel)
    cpu = raw_cpu / run_slowdown

    committed = throughput.min_txns_applied(live)
    # Requests due early enough to have executed by the virtual time reached.
    attempted = min(injected, max(0, (at - DRAIN_DELAYS)) * BATCH)
    result.attempted = max(attempted, 1)
    result.failed = max(0, attempted - committed)
    report = SafetyAuditor(expected_txns=attempted).audit(replicas)
    checks.update({f"audit.{name}": ok for name, ok in report.checks.items()})
    checks["audit.live"] = bool(report.live)
    delays = trackers.latency.percentiles()
    checks["commit_p50_delays_equals_model"] = delays[50] == model.commit_delays_p50(BATCH)

    finalized = rows[-1][2]
    values = result.values
    values["setup_s"] = median(setups) / setup_slowdown
    values["commit_tps"] = committed / cpu
    values["commit_p50_ms"] = ms(percentile(trackers.latencies, 50)) / run_slowdown
    values["commit_p95_ms"] = ms(percentile(trackers.latencies, 95)) / run_slowdown
    values["commit_p99_ms"] = ms(percentile(trackers.latencies, 99)) / run_slowdown
    values["latency_samples"] = float(len(trackers.latencies))
    values["replica_cpu_ms_per_txn"] = 1000.0 * cpu / max(committed, 1)
    values["peak_rss_mb"] = procs.peak_rss_mb("self")
    values["failed_share"] = result.failed / result.attempted
    values["wall.commit_tps"] = committed / wall
    values["cpu_duty"] = raw_cpu / wall
    values["host.slowdown"] = run_slowdown
    values["host.steal_share"] = (procs.steal_seconds() - steal0) / (wall * (os.cpu_count() or 1))
    values["commit_p50_delays"] = delays[50]
    values["sim.events_per_s"] = rows[-1][5] / cpu
    values["multishot.msgs_per_slot"] = rows[-1][3] / finalized
    values["multishot.frames_per_slot"] = rows[-1][4] / finalized
    want_msgs, _frames = model.sends_by(at, N, slots + 40)
    values["multishot.msgs_per_slot_model"] = want_msgs / max(model.finalized_by(at, slots + 40), 1)
    values["multishot.empty_slot_share"] = sum(
        1 for block in replicas[0].consensus.chain.finalized if not block.payload
    ) / max(finalized, 1)
    values["smr.txns_per_block"] = committed / max(finalized, 1)
    quarter = max(1, len(rows) // 4)
    values["late_over_early_cpu"] = _slot_cost(rows, len(rows) - quarter, len(rows)) / _slot_cost(
        rows, 0, quarter
    )
    if tracer is not None:
        _layer_values(values, tracer, rows, raw_cpu, run_slowdown)
        prefix, plain_cpu = overhead_prefix
        traced_cpu = next((row[1] for row in rows if row[0] >= prefix), rows[-1][1])
        values["trace_overhead_share"] = 1.0 - plain_cpu / traced_cpu if traced_cpu else 0.0
    return result


def _slot_cost(rows, lo: int, hi: int) -> float:
    """CPU seconds per finalized slot between chunk rows ``lo`` and ``hi``."""
    cpu_lo, fin_lo = (rows[lo - 1][1], rows[lo - 1][2]) if lo else (0.0, 0)
    return (rows[hi - 1][1] - cpu_lo) / max(rows[hi - 1][2] - fin_lo, 1)


def _layer_values(values, tracer, rows, cpu: float, slowdown: float) -> None:
    """Per-layer numbers from the span totals of the traced pass."""
    totals = tracer.totals()
    finalized = max(rows[-1][2], 1)
    blocks = finalized * N

    def self_us(name: str) -> float:
        return 1e6 * totals.get(name, (0, 0.0))[1] / slowdown

    receive_calls, _ = totals.get("multishot.receive", (0, 0.0))
    # Everything outside a root span is the scheduler's own: the event
    # heap, the network's fan-out, timer and submission events.
    covered = sum(seconds for _calls, seconds in totals.values())
    values["sim.self_us_per_slot"] = 1e6 * (cpu - covered) / slowdown / finalized
    values["multishot.receive_us_per_slot"] = self_us("multishot.receive") / finalized
    values["multishot.receive_calls_per_slot"] = receive_calls / finalized
    values["smr.execute_us_per_block"] = self_us("smr.execute") / blocks
    values["smr.make_payload_us_per_block"] = self_us("smr.make_payload") / finalized
    values["storage.append_us_per_block"] = self_us("storage.block_executed") / blocks
    # Mean per-slot receive self time, last quarter over first quarter.
    nid = tracer.name("multishot.receive")
    quarter = max(1, len(rows) // 4)

    def receive_cost(lo: int, hi: int) -> float:
        self_lo = rows[lo - 1][6][1][nid] if lo else 0.0
        fin_lo = rows[lo - 1][2] if lo else 0
        return (rows[hi - 1][6][1][nid] - self_lo) / max(rows[hi - 1][2] - fin_lo, 1)

    early = receive_cost(0, quarter)
    values["multishot.late_over_early_cost"] = (
        receive_cost(len(rows) - quarter, len(rows)) / early if early else 0.0
    )
