"""Every metric the benchmark emits: name, unit, direction, and — for a
per-layer metric — its layer and the end-to-end metric it is expected
to move, on which workload.

``BENCHMARK.json`` carries only name/unit/better(/bound); this table is
the one place the rest is written down, and ``perf/test_perf_smoke.py``
checks that the two agree.
"""

from __future__ import annotations

from typing import NamedTuple

WORKLOADS = ("sim-chain-n16", "gateway-paced-n4", "net-closed-n4", "net-durable-crash-n4")

CODEC_FAMILIES = (
    "vote",
    "vote_batch",
    "proposal_b10",
    "proposal_b100",
    "client_submit",
    "commit_ack",
    "collect_reply_4k",
)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    what: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    #: ((end-to-end metric, workload), ...) it is expected to move;
    #: every pairing not listed is predicted not to move.
    moves: tuple[tuple[str, str], ...]
    what: str


SIM, GW, CLOSED, CRASH = WORKLOADS
DEPLOYED = (GW, CLOSED, CRASH)

END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "process spawn / connect / StartRun (sim: build + inject) until the first "
             "request can be sent; median of several set-ups per run"),
    EndToEnd("commit_tps", "1/s", "higher", 0.15,
             "committed txns per second over the measured work: per wall second on the "
             "deployed workloads (open loop: goodput), per CPU second in the simulator"),
    EndToEnd("commit_p50_ms", "ms", "lower", 0.15,
             "median latency from the instant a request was due to its commit "
             "(the (f+1)-th matching CommitAck, or the WS commit event)"),
    EndToEnd("commit_p95_ms", "ms", "lower", 0.25, "95th percentile of the same"),
    EndToEnd("replica_cpu_ms_per_txn", "ms", "lower", 0.20,
             "CPU of every system-under-test process per committed txn, reference-host ms"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10,
             "largest VmHWM over the system-under-test processes"),
)


def _on(metric: str, *workloads: str) -> tuple[tuple[str, str], ...]:
    return tuple((metric, workload) for workload in workloads)


PER_LAYER = (
    # -- end-to-end numbers that exist on one workload only, or that no clock on a
    #    shared host resolves: recorded and compared, not gated ----------------------
    PerLayer("commit_p99_ms", "ms", "lower", "e2e", (), "99th percentile commit latency (recorded, ungated)"),
    PerLayer("commit_p50_delays", "delays", "lower", "e2e", (),
             "median submit→commit in message delays Δ (sim; deterministic, checked exact)"),
    PerLayer("failed_share", "share", "lower", "e2e", (),
             "(refused + errored + not committed by the drain deadline) / attempted"),
    PerLayer("fault_stall_ms", "ms", "lower", "e2e", (),
             "longest gap between consecutive commits while the victim is down (crash workload)"),
    PerLayer("recovery_s", "s", "lower", "e2e", (),
             "respawn → first CommitAck from the rejoiner for a txn due after the respawn"),
    PerLayer("read_p50_ms", "ms", "lower", "e2e", (), "GET /v1/state/<key> from due time, median"),
    PerLayer("read_p95_ms", "ms", "lower", "e2e", (), "GET /v1/state/<key> from due time, p95"),
    PerLayer("wall.commit_tps", "1/s", "higher", "e2e", (), "commits per wall second, uncorrected"),
    PerLayer("wall.commit_p50_ms", "ms", "lower", "e2e", (), "median commit latency on the wall clock, uncorrected"),
    PerLayer("wall.commit_p95_ms", "ms", "lower", "e2e", (), "p95 commit latency on the wall clock, uncorrected"),
    PerLayer("cpu_duty", "share", "higher", "host", (),
             "guest CPU seconds of system + generator per wall second per core"),
    PerLayer("host.slowdown", "x", "lower", "host", (),
             "calibration kernel time over its reference: the correction applied to CPU-clock durations"),
    PerLayer("host.steal_share", "share", "lower", "host", (),
             "share of the guest's CPUs the hypervisor gave to someone else during the measured work"),
    PerLayer("host.waited_s", "s", "lower", "host", (), "seconds the run waited for the host to quiet down"),
    # -- sim ---------------------------------------------------------------------------
    PerLayer("sim.events_per_s", "1/s", "higher", "sim", _on("commit_tps", SIM), "scheduler events per CPU second"),
    PerLayer("sim.self_us_per_slot", "us", "lower", "sim", _on("commit_tps", SIM),
             "scheduler + network fan-out time outside every node span, per finalized slot"),
    # -- multishot (+ core, quorums) ---------------------------------------------------
    PerLayer("multishot.receive_us_per_slot", "us", "lower", "multishot", _on("commit_tps", SIM, CLOSED),
             "engine receive self time per finalized slot (sim: 16 replicas; deployed: one, from the tape)"),
    PerLayer("multishot.receive_calls_per_slot", "count", "lower", "multishot", _on("commit_tps", SIM, CLOSED),
             "engine activations per finalized slot"),
    PerLayer("multishot.late_over_early_cost", "ratio", "lower", "multishot",
             _on("commit_tps", SIM) + _on("commit_p50_ms", GW),
             "per-slot cost, last quarter of the run over first quarter (chain-height cost)"),
    PerLayer("multishot.msgs_per_slot", "count", "lower", "multishot", _on("replica_cpu_ms_per_txn", *WORKLOADS),
             "logical protocol messages per finalized slot — the protocol's own O(n²), quantified"),
    PerLayer("multishot.frames_per_slot", "count", "lower", "multishot", _on("replica_cpu_ms_per_txn", *WORKLOADS),
             "physical frames per finalized slot"),
    PerLayer("multishot.msgs_per_slot_model", "count", "lower", "multishot", (),
             "closed-form prediction of msgs_per_slot (sim; checked equal)"),
    PerLayer("multishot.empty_slot_share", "share", "lower", "multishot", _on("replica_cpu_ms_per_txn", GW),
             "finalized blocks with an empty payload: idle slot burn"),
    PerLayer("multishot.stall_count", "count", "lower", "multishot", (("fault_stall_ms", CRASH),),
             "inter-commit gaps longer than the 9Δ view timeout"),
    # -- smr ---------------------------------------------------------------------------
    PerLayer("smr.execute_us_per_block", "us", "lower", "smr", _on("commit_tps", CLOSED, SIM),
             "finalize hook: apply a block to the KV store, self time"),
    PerLayer("smr.make_payload_us_per_block", "us", "lower", "smr", _on("commit_tps", CLOSED, SIM),
             "payload hook: draw a batch from the mempool"),
    PerLayer("smr.state_digest_us", "us", "lower", "smr", _on("commit_tps", CLOSED, SIM),
             "one KVStore.state_digest() call"),
    PerLayer("smr.txns_per_block", "count", "higher", "smr", _on("commit_tps", CLOSED) + _on("commit_p50_ms", GW),
             "committed txns per non-empty finalized block"),
    # -- storage -----------------------------------------------------------------------
    PerLayer("storage.append_us_per_block", "us", "lower", "storage",
             _on("commit_p50_ms", CRASH) + _on("replica_cpu_ms_per_txn", CRASH),
             "DiskStorage.block_executed: WAL append, group fsync, periodic snapshot"),
    PerLayer("storage.fsyncs_per_block", "count", "lower", "storage",
             _on("commit_p50_ms", CRASH) + _on("replica_cpu_ms_per_txn", CRASH), "WAL group commits per block"),
    PerLayer("storage.wal_bytes_per_txn", "B", "lower", "storage", _on("replica_cpu_ms_per_txn", CRASH),
             "WAL bytes written per committed txn"),
    PerLayer("storage.recover_ms_per_kblock", "ms", "lower", "storage", (("recovery_s", CRASH),),
             "DiskStorage.recover() + Replica.bootstrap per 1,000 blocks"),
    PerLayer("storage.recovered_blocks_share", "share", "higher", "storage", (("recovery_s", CRASH),),
             "share of the rejoiner's chain that came back from disk rather than state transfer"),
) + tuple(
    PerLayer(f"codec.{kind}.{family}", unit, "lower", "net.codec",
             (_on("read_p95_ms", GW) + _on("commit_p95_ms", GW)) if family == "collect_reply_4k"
             else (_on("commit_tps", CLOSED) + _on("replica_cpu_ms_per_txn", CLOSED)),
             what.format(family=family))
    for family in CODEC_FAMILIES
    for kind, unit, what in (
        ("encode_us", "us", "WIRE_CODEC.encode_frame of one {family} frame"),
        ("decode_us", "us", "FrameBuffer.feed of one {family} frame"),
        ("bytes", "B", "encoded size of one {family} frame"),
    )
) + (
    # -- net.transport -----------------------------------------------------------------
    PerLayer("transport.frames_per_txn", "count", "lower", "net.transport", _on("commit_tps", CLOSED), "peer frames flushed per committed txn"),
    PerLayer("transport.bytes_per_txn", "B", "lower", "net.transport", _on("commit_tps", CLOSED), "peer bytes flushed per committed txn"),
    PerLayer("transport.flushes_per_txn", "count", "lower", "net.transport", _on("commit_tps", CLOSED), "socket writes per committed txn"),
    PerLayer("transport.frames_per_flush", "count", "higher", "net.transport", _on("commit_tps", CLOSED), "frames merged into one socket write"),
    PerLayer("transport.queue_lag_max", "count", "lower", "net.transport", _on("commit_tps", CLOSED), "deepest outbound lane seen by a scrape"),
    PerLayer("transport.held_us_per_txn", "us", "lower", "net.transport", _on("commit_p50_ms", GW),
             "time the delayed flush held frames, per committed txn"),
    PerLayer("transport.unattributed_cpu_share", "share", "lower", "net.transport", _on("commit_tps", CLOSED),
             "1 − Σ(layer-tape µs × scraped counts) ÷ replica CPU: event loop + syscalls"),
    # -- net.client and the generator boundary -------------------------------------------
    PerLayer("client.submit_us", "us", "lower", "net.client", _on("commit_p95_ms", CLOSED), "ReplicaPool.submit: one encode, n writes"),
    PerLayer("client.first_ack_ms", "ms", "lower", "net.client", _on("commit_p95_ms", CLOSED, CRASH), "due → first CommitAck, median"),
    PerLayer("client.ack_spread_ms", "ms", "lower", "net.client", _on("commit_p95_ms", CLOSED, CRASH),
             "(f+1)-th → n-th ack: the slowest replica's lag, median"),
    PerLayer("gen.lateness_p99_ms", "ms", "lower", "generator", (), "how late the open-loop generator sent, p99"),
    PerLayer("gen.cpu_share", "share", "lower", "generator", (), "generator CPU seconds per wall second"),
    # -- gateway -----------------------------------------------------------------------
    PerLayer("gateway.admit_ms_p50", "ms", "lower", "gateway", _on("commit_p50_ms", GW), "POST sent → 202, median"),
    PerLayer("gateway.batch_fill", "count", "higher", "gateway", _on("commit_p50_ms", GW), "txns per ClientSubmitBatch flush (from /v1/metrics)"),
    PerLayer("gateway.cpu_ms_per_txn", "ms", "lower", "gateway", _on("commit_p50_ms", GW), "gateway process CPU per committed txn"),
    PerLayer("gateway.rejected_share", "share", "lower", "gateway", _on("commit_p50_ms", GW), "submissions the gateway refused"),
    PerLayer("gateway.submit_us", "us", "lower", "gateway", _on("read_p95_ms", GW) + _on("commit_p95_ms", GW),
             "GatewayService.submit against a null pool"),
    PerLayer("gateway.ingest_snapshot_ms_4k", "ms", "lower", "gateway", _on("read_p95_ms", GW) + _on("commit_p95_ms", GW),
             "ingest_snapshots on four 4,000-block replies"),
    # -- obs ---------------------------------------------------------------------------
    PerLayer("obs.trace.submit_to_propose_ms", "ms", "lower", "obs", _on("commit_p50_ms", *DEPLOYED), "replicas' sampled stage split, scraped: mempool wait"),
    PerLayer("obs.trace.propose_to_finalize_ms", "ms", "lower", "obs", _on("commit_p50_ms", *DEPLOYED), "replicas' sampled stage split, scraped: consensus"),
    PerLayer("obs.trace.finalize_to_ack_ms", "ms", "lower", "obs", _on("commit_p50_ms", *DEPLOYED),
             "what is left of the generator-side median after the two scraped stages"),
    PerLayer("trace_overhead_share", "share", "lower", "obs", (), "1 − untraced/traced speed over the same work"),
)

#: Where a per-layer metric is measured, when that is not on every
#: workload: elsewhere its layer is absent and it reads 0.  A traced run
#: that comes back without a metric it should have measured fails.
_ONLY_ON = {
    "commit_p50_delays": (SIM,),
    "multishot.msgs_per_slot_model": (SIM,),
    "sim.events_per_s": (SIM,),
    "sim.self_us_per_slot": (SIM,),
    # Deployed runs have it only beside an untraced run of the same seed.
    "trace_overhead_share": (SIM,),
    "fault_stall_ms": (CRASH,),
    "recovery_s": (CRASH,),
    "storage.fsyncs_per_block": (CRASH,),
    "storage.wal_bytes_per_txn": (CRASH,),
    "storage.recover_ms_per_kblock": (CRASH,),
    "storage.recovered_blocks_share": (CRASH,),
    "read_p50_ms": (GW,),
    "read_p95_ms": (GW,),
    "gateway.admit_ms_p50": (GW,),
    "gateway.batch_fill": (GW,),
    "gateway.cpu_ms_per_txn": (GW,),
    "gateway.rejected_share": (GW,),
    "client.submit_us": (CLOSED, CRASH),
    "client.first_ack_ms": (CLOSED, CRASH),
    "client.ack_spread_ms": (CLOSED, CRASH),
    "gen.lateness_p99_ms": (GW, CRASH),
    "gen.cpu_share": DEPLOYED,
    "multishot.stall_count": DEPLOYED,
    "wall.commit_p50_ms": DEPLOYED,
    "wall.commit_p95_ms": DEPLOYED,
    **{m.name: DEPLOYED for m in PER_LAYER if m.layer == "net.transport"},
    **{m.name: DEPLOYED for m in PER_LAYER if m.name.startswith("obs.trace.")},
}


def measured_on(name: str) -> tuple[str, ...]:
    """The workloads on which per-layer metric ``name`` is measured."""
    return _ONLY_ON.get(name, WORKLOADS)


#: Printed by ``perf/run.py`` and kept in the result files, but not part
#: of the contract: sample counts and the tape's own intermediate values.
DIAGNOSTICS = {
    "latency_samples": "count",
    "setup_wall_s": "s",
    "read_samples": "count",
    "late_over_early_cpu": "ratio",
    "slots_per_txn": "count",
    "commits": "count",
    "snapshot_refreshes": "count",
    "snapshot_chain_blocks": "count",
    "replica_cpu_seconds": "s",
    "consensus.view_changes": "count",
    "tape.receive_us_per_call": "us",
    "tape.receive_us_per_slot": "us",
    "tape.slowdown": "x",
    "tape.replay_matches_recording": "bool",
}

UNITS = {**DIAGNOSTICS, **{m.name: m.unit for m in END_TO_END + PER_LAYER}}
