"""Live observability over a deployed cluster: scrape, events, forensics.

The integration surface of the obs plane: a real 4-replica cluster
(one OS process each, TCP sockets, the versioned codec) runs a
workload while the driver scrapes it **in-band** — the same
``MetricsRequest`` round ``python -m repro obs`` and the gateway's
``/v1/cluster/metrics`` use — and the scraped payload must carry the
consensus, transport and durability series the A7 bench reads.
Event-log forensics are checked end to end too: every replica of a
durable cluster leaves an NDJSON tail next to its WAL at shutdown,
and ``REPRO_EVENT_LOG=1`` streams it live.
"""

from __future__ import annotations

import json
import os

from repro.net.cluster import ClusterConfig, build_specs, reply_metric, run_cluster_workload
from repro.net.replica_main import ReplicaProcess, _AckingTrackers, _ObsNetContext
from repro.obs import EVENT_FIELDS, CommitPathTracer, EventLog, MetricsRegistry
from repro.sim.trace import TraceKind
from repro.smr.mempool import Transaction


def _schedule(count: int, rate: float = 10.0):
    out = []
    for k in range(count):
        if k % 3 == 0:
            txn = Transaction(f"obs-{k}", ("incr", f"counter-{k % 4}", 1))
        else:
            txn = Transaction(f"obs-{k}", ("set", f"key-{k % 7}", k))
        out.append((k / rate, txn))
    return out


def test_scrape_during_live_run_carries_the_metric_series(tmp_path):
    """A durable n=4 cluster is scraped mid-run (while still in
    consensus): the per-replica payload carries the consensus,
    transport and durability metrics the acceptance list names."""
    schedule = _schedule(30)
    result = run_cluster_workload(
        ClusterConfig(n=4, engine="tetrabft", deadline=25.0, data_dir=str(tmp_path)),
        schedule,
    )
    assert result.completed
    assert set(result.scrapes) == {0, 1, 2, 3}, "mid-run scrape missed a replica"
    for node_id, reply in result.scrapes.items():
        assert reply.node_id == node_id
        names = {name for name, _ in reply.items}
        for required in (
            "consensus.commits",
            "consensus.commit.rate",
            "consensus.view_changes",
            "mempool.depth",
            "net.frames_in",
            "net.messages_in",
            "net.client_frames_in",
            "net.client_frames_out",
            "transport.queue_lag",
            "storage.fsyncs",
            "storage.wal_bytes",
            "events.buffered",
        ):
            assert required in names, f"replica {node_id} scrape missing {required}"
        # The cluster was mid-consensus and fully acked: commits flowed
        # and the WAL was written before the scrape answered.
        assert reply_metric(reply, "consensus.commits") > 0
        assert reply_metric(reply, "storage.fsyncs") > 0
        assert reply_metric(reply, "storage.wal_bytes") > 0
        assert reply.events > 0, "event ring was empty mid-run"
    # The final CollectReply carries the same registry payload.
    for reply in result.replies.values():
        assert reply_metric(reply, "consensus.commits") > 0
        assert reply_metric(reply, "net.frames_in") > 0
        assert reply_metric(reply, "net.client_frames_in") > 0
        assert reply_metric(reply, "net.client_frames_out") > 0


def test_shutdown_dumps_event_ring_next_to_the_wal(tmp_path):
    """Without REPRO_EVENT_LOG, a durable replica still dumps its ring
    tail to ``events.ndjson`` on clean shutdown — the forensics file
    the CI artifact uploads."""
    schedule = _schedule(20)
    result = run_cluster_workload(
        ClusterConfig(n=4, engine="tetrabft", deadline=25.0, data_dir=str(tmp_path)),
        schedule,
    )
    assert result.completed
    for node_id in range(4):
        path = tmp_path / f"replica-{node_id}" / "events.ndjson"
        assert path.exists(), f"replica {node_id} left no event log"
        lines = path.read_text().splitlines()
        assert lines, "event log is empty"
        kinds = set()
        for line in lines:
            event = json.loads(line)
            assert list(event) == list(EVENT_FIELDS)
            assert event["replica"] == node_id
            kinds.add(event["kind"])
        assert "finalize" in kinds


def test_event_log_streams_live_under_repro_event_log(tmp_path):
    """REPRO_EVENT_LOG=1 (inherited by the replica processes) switches
    the log from dump-at-exit to append-as-it-happens."""
    os.environ["REPRO_EVENT_LOG"] = "1"
    try:
        schedule = _schedule(15)
        result = run_cluster_workload(
            ClusterConfig(n=4, engine="tetrabft", deadline=25.0, data_dir=str(tmp_path)),
            schedule,
        )
    finally:
        os.environ.pop("REPRO_EVENT_LOG", None)
    assert result.completed
    for node_id in range(4):
        path = tmp_path / f"replica-{node_id}" / "events.ndjson"
        assert path.exists()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(e["kind"] == "finalize" for e in events)


def test_view_changes_are_counted_whichever_call_announces_them():
    """The replica's obs seam, in-process.  Single-shot nodes announce
    a view with ``report_view_entry``; the multi-shot node and the
    chained baselines trace ``VIEW_ENTER`` per slot.  Both count, both
    log; view 0 (a slot starting) does neither."""
    registry = MetricsRegistry()
    events = EventLog(replica=0)
    ctx = _ObsNetContext(0, None, 0.05, registry, events)
    ctx.report_view_entry(0)
    ctx.trace(TraceKind.VIEW_ENTER, slot=7, view=0)
    ctx.trace(TraceKind.TIMER, slot=7, view=0)
    assert registry.snapshot()["consensus.view_changes"] == 0
    assert events.tail() == []
    ctx.report_view_entry(1)
    ctx.trace(TraceKind.VIEW_ENTER, slot=7, view=2)
    scrape = registry.snapshot()
    assert scrape["consensus.view_changes"] == 2
    assert scrape["consensus.view"] == 2
    logged = [(e["kind"], e["view"], e["slot"]) for e in events.tail()]
    assert logged == [("view_enter", 1, -1), ("view_enter", 2, 7)]


def test_a_lost_peer_leaves_one_event_and_early_timeouts_are_counted():
    """A lane loss is one ``peer_lost`` event (a replica not yet in
    consensus has no slots to hand it to), and only a slot timer that
    fired because its leader was lost counts as a leader-lost timeout."""
    process = ReplicaProcess(build_specs(ClusterConfig(n=4, max_slots=8))[0])
    process._on_peer_lost(2)
    assert [(e["kind"], e["payload"]) for e in process.events.tail()] == [
        ("peer_lost", {"peer": 2})
    ]
    process.ctx.trace(TraceKind.TIMER, slot=7, view=0)
    process.ctx.trace(TraceKind.TIMER, slot=8, view=0, leader_lost=True)
    assert process.registry.snapshot()["consensus.leader_lost_timeouts"] == 1


def test_replica_trackers_keep_no_per_txn_samples():
    """Constant storage in the replica process: submits and commits
    move the counters, the tracer and the ack, and leave nothing behind
    per transaction in the latency tracker nobody there reads."""
    registry = MetricsRegistry()
    acked: list[str] = []
    executed: list[int] = []
    trackers = _AckingTrackers(
        executed.append,
        acked.append,
        registry,
        EventLog(replica=0),
        CommitPathTracer(sample_every=1),
    )
    for k in range(100):
        trackers.record_submit(f"tx-{k}", float(k))
        trackers.record_commit(0, f"tx-{k}", float(k) + 5.0)
    trackers.record_block(0, slot=1, txns=100, mempool_size=0, time=105.0)
    assert trackers.latency.submitted_count == trackers.latency.sample_count == 0
    assert trackers.throughput.txns_applied(0) == 100
    assert registry.snapshot()["consensus.commits"] == 100
    assert len(acked) == 100
    assert executed == [100]  # the block hook, once per block
