"""Experiment A8 — the client gateway under open-loop load.

A7 proved the protocol over real sockets with a cooperative bench
driver; this experiment puts the *client plane* in front of it: a
deployed n-replica cluster, the layered gateway
(:mod:`repro.gateway`) terminating real HTTP traffic, and an
**open-loop** load generator — arrival times are drawn from a seeded
Poisson process at a fixed offered rate and never wait for responses,
so a gateway that falls behind accumulates queue, exactly like
production traffic.

Each cell runs a *ramp* of offered-rate levels against one cluster
(thousands of logical clients multiplexed over a bounded set of
keep-alive connections — fairness is keyed on ``x-client-id``, not the
socket).  Per level the bench reports accepted/committed counts,
achieved throughput over the commit window, and the gateway-observed
submit → f+1-quorum-commit latency percentiles.  A level *saturates*
when achieved throughput falls below 80% of offered; the first
saturating offered rate is the cell's **saturation point** — the
capacity number a gateway SLO would be written against.

Cross-validation is not optional here either: after the ramp the bench
collects every replica's finalized chain and state digest and replays
them through the same :class:`~repro.verification.audit.SafetyAuditor`
as A6/A7 (safety-only — liveness under deliberate overload is not a
protocol property).  The read path is exercised end to end: the
gateway applies the blocks the live replicas stream to it, and the
bench reads an incremented key back through ``GET /v1/state/…``.

``BENCH_gateway.json`` keeps what every run of the ramp reproduces —
each level's identity, whether it saturated, the audit verdicts (smoke
key ``gateway_smoke`` + aggregate ``gateway_saturation``; the
``REPRO_HEAVY=1`` grid — n ∈ {4, 7}, more clients — under
``gateway_grid``).  Counts, throughput and latencies differ run to run,
so they are printed, not persisted; ``perf/`` measures them.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.config import repro_config
from repro.errors import SimulationError
from repro.eval.report import format_table, merge_record
from repro.gateway.app import GatewayServer
from repro.gateway.http import HTTPClient, WSClient
from repro.gateway.service import GatewayConfig, GatewayService
from repro.metrics.smr_trackers import nearest_rank_percentiles
from repro.net.client import ReplicaPool
from repro.net.cluster import ClusterConfig, cluster_processes, sized_max_slots
from repro.verification.audit import ReplicaEvidence, SafetyAuditor

#: Offered-rate ramp of the smoke cell, txns/sec.  The client pool's
#: per-tick submit batching lifts the deployed cluster to ~1,500 committed
#: txns/sec on this host, so the paced levels sit far below capacity
#: and the probe level far above it: which levels saturate is a
#: property of the ramp shape, not of host speed, and the recorded
#: ``saturated`` column would flap on any level near capacity.
SMOKE_LEVELS = (100.0, 400.0, 6400.0)

#: Seconds of arrivals per level.
LEVEL_SECONDS = 1.0

#: Logical clients (distinct x-client-id values / token buckets).
SMOKE_CLIENTS = 500
HEAVY_CLIENTS = 2000

#: Physical keep-alive connections the logical clients multiplex over.
PHYSICAL_CONNS = 16

#: Seconds to wait for accepted submissions to commit after a level.
DRAIN_SECONDS = 10.0

#: Seconds of wall clock per protocol Δ (matches the A7 smoke).
TIME_SCALE = 0.05

#: Per-client token bucket: generous against the mean per-client rate
#: (top smoke level / clients ≈ 3.2 txns/sec) so rate limiting shapes
#: abusive clients, not the measured capacity.
CLIENT_RATE = 20.0
CLIENT_BURST = 30.0

BENCH_PATH = Path(__file__).resolve().parents[3] / "BENCH_gateway.json"


@dataclass
class GatewayRow:
    """One (engine, n, offered-rate) level of the gateway ramp."""

    engine: str
    n: int
    offered: float
    clients: int
    accepted: int
    committed: int
    rejected: int
    achieved_tps: float
    p50_ms: float
    p99_ms: float
    saturated: bool
    safe: bool
    checks: dict[str, bool]

    @property
    def verdict(self) -> str:
        state = "SAT" if self.saturated else "paced"
        return f"{state}/{'safe' if self.safe else 'UNSAFE'}"


@dataclass
class GatewayCellResult:
    """One full ramp against one cluster."""

    rows: list[GatewayRow]
    #: First offered rate whose level saturated (2x the top level when
    #: the ramp never saturated — "capacity is beyond the probe").
    saturation_offered: float
    #: The read path returned the expected executed value.
    reads_ok: bool
    #: Commit events observed by the WebSocket subscriber.
    ws_events: int
    ws_evicted: bool
    safe: bool


@dataclass
class _LevelStats:
    accepted: int = 0
    rejected: int = 0
    errors: int = 0


def _percentiles_ms(samples: list[float]) -> dict[int, float]:
    return {p: v * 1000.0 for p, v in nearest_rank_percentiles(samples).items()}


async def _submit_worker(
    client: HTTPClient, queue: asyncio.Queue, stats: _LevelStats, accepted: list[str]
) -> None:
    """Drain (client_id, payload) submissions over one connection."""
    while True:
        item = await queue.get()
        if item is None:
            return
        client_id, payload = item
        try:
            response = await client.request(
                "POST",
                "/v1/transactions",
                payload=payload,
                headers={"x-client-id": client_id},
            )
        except (OSError, ConnectionError, asyncio.IncompleteReadError):
            stats.errors += 1
            client.close()
            continue
        if response.status == 202:
            stats.accepted += 1
            accepted.append(payload["txid"])
        else:
            stats.rejected += 1


async def _run_level(
    service: GatewayService,
    http_clients: list[HTTPClient],
    *,
    offered: float,
    duration: float,
    clients: int,
    seed: int,
    level_index: int,
    drain: float = DRAIN_SECONDS,
) -> GatewayRow:
    """One open-loop level: paced arrivals, then a commit drain."""
    rng = random.Random((seed + 1) * 7919 + level_index)
    queue: asyncio.Queue = asyncio.Queue()
    stats = _LevelStats()
    accepted: list[str] = []
    workers = [
        asyncio.ensure_future(_submit_worker(client, queue, stats, accepted))
        for client in http_clients
    ]
    total = int(offered * duration)
    next_at = time.monotonic()
    for i in range(total):
        next_at += rng.expovariate(offered)
        delay = next_at - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        client_id = f"c{rng.randrange(clients):04d}"
        queue.put_nowait(
            (
                client_id,
                {
                    "txid": f"g{level_index}-{i:06d}",
                    "op": ["incr", f"k{i % 128:03d}", 1],
                },
            )
        )
    while not queue.empty():
        await asyncio.sleep(0.01)
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)

    deadline = time.monotonic() + drain
    while time.monotonic() < deadline:
        statuses = [service.txns[txid] for txid in accepted if txid in service.txns]
        if statuses and all(status.committed for status in statuses):
            break
        await asyncio.sleep(0.05)

    commits = [
        service.txns[txid]
        for txid in accepted
        if txid in service.txns and service.txns[txid].committed
    ]
    latencies = [status.latency for status in commits if status.latency is not None]
    commit_times = sorted(status.committed_at for status in commits)
    span = commit_times[-1] - commit_times[0] if len(commit_times) > 1 else 0.0
    achieved = len(commits) / span if span > 0 else 0.0
    percentiles = _percentiles_ms(latencies)
    return GatewayRow(
        engine="",  # stamped by the cell runner
        n=0,
        offered=offered,
        clients=clients,
        accepted=stats.accepted,
        committed=len(commits),
        rejected=stats.rejected + stats.errors,
        achieved_tps=achieved,
        p50_ms=percentiles[50],
        p99_ms=percentiles[99],
        saturated=achieved < 0.8 * offered,
        safe=True,  # stamped after the audit
        checks={},
    )


async def _drive_gateway(
    specs,
    *,
    engine: str,
    n: int,
    levels: tuple[float, ...],
    duration: float,
    clients: int,
    conns: int,
    seed: int,
    time_scale: float,
) -> GatewayCellResult:
    pool = ReplicaPool.from_specs(specs, time_scale=time_scale)
    await pool.connect()
    service = GatewayService(
        pool,
        GatewayConfig(n=n, rate=CLIENT_RATE, burst=CLIENT_BURST),
    )
    await service.start()
    server = GatewayServer(service)
    await server.start()

    # One WebSocket subscriber rides the whole ramp: the fan-out path
    # runs under load, and its event count lands in the record.
    ws = WSClient(server.host, server.port)
    ws_events = 0

    async def ws_drain() -> int:
        count = 0
        while await ws.next_json() is not None:
            count += 1
        return count

    await ws.connect()
    ws_task = asyncio.ensure_future(ws_drain())

    http_clients = [HTTPClient(server.host, server.port) for _ in range(conns)]
    try:
        rows = []
        for index, offered in enumerate(levels):
            row = await _run_level(
                service,
                http_clients,
                offered=offered,
                duration=duration,
                clients=clients,
                seed=seed,
                level_index=index,
            )
            row.engine = engine
            row.n = n
            rows.append(row)

        # Read path: the state the gateway applied from the *running*
        # cluster's block streams, read through the HTTP API for a key
        # every level hit.
        reads_ok = False
        try:
            response = await http_clients[0].request("GET", "/v1/state/k000")
            body = response.json()
            reads_ok = response.status == 200 and isinstance(body, dict) and body.get(
                "value", 0
            ) >= 1
        except (OSError, ConnectionError, asyncio.IncompleteReadError):
            reads_ok = False

        ws.close()
        try:
            ws_events = await asyncio.wait_for(ws_task, timeout=2.0)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            ws_task.cancel()
        ws_evicted = ws.close_code is not None and ws.close_code != 1000

        await service.stop()
        replies = await pool.collect()
    finally:
        for client in http_clients:
            client.close()
        ws.close()
        # Let the server's per-connection tasks observe the EOFs and
        # return before the loop closes — a handler cancelled inside a
        # read would log spurious CancelledError tracebacks.
        await asyncio.sleep(0.1)
        await server.stop()
        pool.close()

    evidence = [
        ReplicaEvidence(
            node_id=reply.node_id,
            chain=tuple(reply.chain),
            state_digest=reply.state_digest,
            applied_txids=tuple(reply.applied_txids),
        )
        for reply in sorted(replies.values(), key=lambda r: r.node_id)
    ]
    # Safety-only audit: agreement, no-fork, execute-once, replay.  A
    # deliberately overloaded level is *supposed* to leave a backlog,
    # so liveness (expected_txns) is not asserted here.
    report = SafetyAuditor().audit_evidence(evidence)
    for row in rows:
        row.safe = report.safe
        row.checks = dict(report.checks)

    saturated_levels = [row.offered for row in rows if row.saturated]
    saturation = min(saturated_levels) if saturated_levels else 2.0 * max(levels)
    return GatewayCellResult(
        rows=rows,
        saturation_offered=saturation,
        reads_ok=reads_ok,
        ws_events=ws_events,
        ws_evicted=ws_evicted,
        safe=report.safe,
    )


def run_gateway_cell(
    engine: str = "tetrabft",
    n: int = 4,
    levels: tuple[float, ...] = SMOKE_LEVELS,
    duration: float = LEVEL_SECONDS,
    clients: int = SMOKE_CLIENTS,
    conns: int = PHYSICAL_CONNS,
    seed: int = 0,
    time_scale: float = TIME_SCALE,
) -> GatewayCellResult:
    """One gateway ramp: spawn a cluster, serve it, load it, audit it."""
    total = sum(int(offered * duration) for offered in levels)
    # The ramp runs for len(levels) × (duration + drain) at worst; the
    # chain budget must cover empty-slot burn for all of it.
    budget_seconds = len(levels) * (duration + DRAIN_SECONDS) + 10.0
    config = ClusterConfig(
        n=n,
        engine=engine,
        time_scale=time_scale,
        deadline=budget_seconds,
    )
    config = replace(config, max_slots=sized_max_slots(config, total))
    # Same port-steal retry discipline as run_cluster_workload.
    for attempt in (0, 1):
        with cluster_processes(config) as (specs, _processes):
            try:
                return asyncio.run(
                    _drive_gateway(
                        specs,
                        engine=engine,
                        n=n,
                        levels=levels,
                        duration=duration,
                        clients=clients,
                        conns=conns,
                        seed=seed,
                        time_scale=time_scale,
                    )
                )
            except SimulationError:
                if attempt == 1:
                    raise
    raise AssertionError("unreachable")  # pragma: no cover


def gateway_record(row: GatewayRow) -> dict:
    """One GatewayRow as a BENCH_gateway.json cell: what every run reproduces."""
    return {
        "engine": row.engine,
        "n": row.n,
        "offered": row.offered,
        "clients": row.clients,
        "saturated": row.saturated,
        "safe": row.safe,
        "checks": dict(row.checks),
    }


def write_gateway_records(
    results: list[GatewayCellResult], key: str, path: Path = BENCH_PATH
) -> None:
    """Persist the ramp rows plus the saturation aggregate.

    The aggregate reports the n=4 cell (present in smoke and heavy
    alike, so the record stays comparable across modes).
    """
    merge_record(
        path, key, [gateway_record(row) for result in results for row in result.rows]
    )
    primary = min(results, key=lambda result: result.rows[0].n if result.rows else 999)
    merge_record(
        path,
        "gateway_saturation",
        {
            "saturation_offered": primary.saturation_offered,
            "reads_ok": primary.reads_ok,
            "ws_evicted": primary.ws_evicted,
            "safe": primary.safe,
        },
    )


def format_gateway_report(rows: list[GatewayRow]) -> str:
    return format_table(
        [
            {
                "engine": row.engine,
                "n": row.n,
                "offered": row.offered,
                "clients": row.clients,
                "accepted": row.accepted,
                "committed": row.committed,
                "rejected": row.rejected,
                "tps": row.achieved_tps,
                "p50(ms)": row.p50_ms,
                "p99(ms)": row.p99_ms,
                "verdict": row.verdict,
            }
            for row in rows
        ],
        columns=[
            "engine",
            "n",
            "offered",
            "clients",
            "accepted",
            "committed",
            "rejected",
            "tps",
            "p50(ms)",
            "p99(ms)",
            "verdict",
        ],
        title="A8 — client gateway under open-loop HTTP load (audited)",
    )


def main() -> None:  # pragma: no cover - CLI entry
    if repro_config().heavy:
        results = [
            run_gateway_cell(n=n, clients=HEAVY_CLIENTS) for n in (4, 7)
        ]
        key = "gateway_grid"
    else:
        results = [run_gateway_cell()]
        key = "gateway_smoke"
        print("(smoke ramp: n=4, 500 clients — REPRO_HEAVY=1 for the n∈{4,7} grid)")
    rows = [row for result in results for row in result.rows]
    print(format_gateway_report(rows))
    write_gateway_records(results, key)
    for result in results:
        n = result.rows[0].n if result.rows else "?"
        print(
            f"n={n}: saturation at {result.saturation_offered:,.0f} offered txns/sec, "
            f"read path {'ok' if result.reads_ok else 'FAILED'}, "
            f"{result.ws_events} ws commit events"
            f"{' (subscriber evicted)' if result.ws_evicted else ''}"
        )
    failed = [result for result in results if not result.safe or not result.reads_ok]
    if failed:
        print(f"FAILED: {len(failed)} gateway cell(s) failed audit or read path")
        raise SystemExit(1)
    print(f"all {len(results)} gateway cells passed the safety audit")


if __name__ == "__main__":  # pragma: no cover
    main()
