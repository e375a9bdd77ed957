"""``python -m repro obs`` — live metrics table over a running cluster.

The operations-plane demo: deploy a small cluster (one OS process per
replica, the A7 shape), drive a background transaction workload at it,
and every ``interval`` seconds scrape every replica **in-band** — a
``MetricsRequest`` frame over the same client port and codec the
protocol runs on, answered without pausing consensus — rendering one
table row per replica:

* consensus: total commits, live windowed commit rate, current view,
  view changes, mempool depth;
* transport: worst per-peer outbound queue lag;
* durability (durable clusters): fsyncs, WAL bytes;
* the event-log ring depth (``ev``).

This is the same scrape path :meth:`GatewayService.cluster_metrics`
serves over ``/v1/cluster/metrics`` and the A7 bench persists into
``BENCH_net.json`` — here it just refreshes a terminal table until the
workload is fully acked (or ``--rounds`` snapshots have been taken).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace

from repro.eval.report import format_table
from repro.eval.smr_bench import build_workload
from repro.net.client import AckCorrelator, ReplicaPool
from repro.net.cluster import (
    ClusterConfig,
    cluster_processes,
    reply_metric,
    schedule_from_workload,
    sized_max_slots,
)

#: Default live-view shape: one n=4 lan cell's worth of workload.
OBS_N = 4
OBS_TXNS = 60
OBS_BATCH = 10
OBS_INTERVAL = 0.5
OBS_MAX_ROUNDS = 20


def _replica_row(node_id: int, reply) -> dict:
    """One scraped replica as a live-table row."""
    return {
        "node": node_id,
        "commits": int(reply_metric(reply, "consensus.commits")),
        "commit/s": reply_metric(reply, "consensus.commit.rate"),
        "view": int(reply_metric(reply, "consensus.view")),
        "vchg": int(reply_metric(reply, "consensus.view_changes")),
        "mempool": int(reply_metric(reply, "mempool.depth")),
        "lag": int(reply_metric(reply, "transport.queue_lag")),
        "fsync": int(reply_metric(reply, "storage.fsyncs")),
        "walB": int(reply_metric(reply, "storage.wal_bytes")),
        "ev": getattr(reply, "events", 0),
    }


def format_obs_table(replies: dict, title: str) -> str:
    rows = [_replica_row(node_id, reply) for node_id, reply in sorted(replies.items())]
    return format_table(
        rows,
        columns=[
            "node",
            "commits",
            "commit/s",
            "view",
            "vchg",
            "mempool",
            "lag",
            "fsync",
            "walB",
            "ev",
        ],
        title=title,
    )


async def _observe(config: ClusterConfig, specs, schedule, interval, rounds) -> bool:
    """Drive the workload while scraping; True once fully acked."""
    correlator = AckCorrelator()
    correlator.track_nodes(range(config.n))

    def on_ack(node_id: int, ack) -> None:
        correlator.record_ack(node_id, ack, time.monotonic())

    pool = ReplicaPool.from_specs(specs, time_scale=config.time_scale, on_ack=on_ack)
    await pool.connect()
    pool.start_run()
    t0 = time.monotonic()

    async def drive() -> None:
        for at, txn in schedule:
            wait = t0 + at * config.time_scale - time.monotonic()
            if wait > 0:
                await asyncio.sleep(wait)
            correlator.record_submit(txn.txid, time.monotonic())
            pool.submit(txn)

    driver = asyncio.ensure_future(drive())
    done = False
    try:
        for snapshot in range(1, rounds + 1):
            await asyncio.sleep(interval)
            try:
                replies = await pool.scrape(timeout=2.0)
            except (OSError, ConnectionError, asyncio.TimeoutError):
                continue
            elapsed = time.monotonic() - t0
            acked = sum(len(txids) for txids in correlator.acked.values())
            print(
                format_obs_table(
                    replies,
                    title=(
                        f"obs scrape {snapshot} — t={elapsed:.1f}s, "
                        f"{acked} acks / {len(correlator.expected) * config.n} expected"
                    ),
                )
            )
            if driver.done() and correlator.all_acked(pool.live):
                done = True
                break
    finally:
        driver.cancel()
        pool.close()
    return done


def run_obs_live(
    n: int = OBS_N,
    txns: int = OBS_TXNS,
    batch: int = OBS_BATCH,
    interval: float = OBS_INTERVAL,
    rounds: int = OBS_MAX_ROUNDS,
    data_dir: str | None = None,
) -> bool:
    """Deploy, drive, and live-scrape one cluster; True if fully acked."""
    config = ClusterConfig(n=n, batch=batch, data_dir=data_dir)
    schedule = schedule_from_workload(build_workload("uniform", txns, batch, seed=0))
    config = replace(config, max_slots=sized_max_slots(config, len(schedule)))
    with cluster_processes(config) as (specs, processes):
        return asyncio.run(_observe(config, specs, schedule, interval, rounds))


def main() -> None:  # pragma: no cover - CLI entry
    import tempfile

    # A durable cluster (throwaway data dir) so the storage columns —
    # fsyncs, WAL bytes — are live too.
    with tempfile.TemporaryDirectory(prefix="repro-obs-") as tmp:
        done = run_obs_live(data_dir=tmp)
    if not done:
        print("workload did not fully ack within the observation window")
        raise SystemExit(1)
    print("workload fully acked under live observation")


if __name__ == "__main__":  # pragma: no cover
    main()
