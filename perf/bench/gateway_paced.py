"""``gateway-paced-n4`` — the latency workload, through the front door.

Full pipeline: generator → HTTP ``POST /v1/transactions`` → ``gateway/``
(its own process, **default** ``GatewayConfig`` incl. the 0.5 s snapshot
refresh and 5 ms batch window) → ``net/client`` pool → codec → TCP →
engine → KV, MemoryStorage.  Open loop, seeded Poisson: writes plus one
``GET /v1/state/<key>`` read per ten writes, over 64 logical client ids;
commits are observed on one ``/v1/ws`` subscription.  The generator uses
two connections (= nproc here): one pipelined HTTP connection and the
WebSocket.

The cluster is sub-capacity, so commit latency is hops + batching
windows + holds; a codec or engine CPU saving is predicted to leave
``commit_p50_ms`` unchanged here.  Reads ride beside writes on the same
replica client port and gateway loop, so a write-path gain that taxes
the snapshot read path (or the reverse) shows.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing
import random
import time
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.gateway.http import WSClient
from repro.net.client import ReplicaPool
from repro.net.cluster import cluster_processes

from bench import calib, loadgen, procs
from bench import cluster as cl
from bench.gateway_proc import run_gateway
from bench.http_pipeline import PipelinedHTTP
from bench.result import RunResult
from bench.stats import median, ms, percentile

NAME = "gateway-paced-n4"
WRITE_RATE = 100.0
READ_RATE = 10.0
CLIENT_IDS = 64
KEYS = 32
BATCH = 10
#: Injected one-way link delay.  A commit is 5.5 hops at the median, so
#: 27 of the ~48 ms ``commit_p50_ms`` are injected and the rest is what
#: the code controls (batch window, holds, HTTP, processing).  Under
#: ~5 ms the shared host's scheduling shows through: at 2 ms links five
#: identical runs spread 11% on p50 and 30% on p95.
LINK_LATENCY = 0.005
#: Seconds to wait for the snapshot read path to catch up with the
#: last commit before the final reads are compared.
FINAL_READ_SECONDS = 8.0
#: Seconds the gateway process gets to connect its pool and bind.
GATEWAY_UP_SECONDS = 30.0


@dataclass
class System:
    """Cluster + gateway process + the generator's two connections."""

    specs: list
    processes: list
    gateway: object
    http: PipelinedHTTP
    ws: WSClient


async def _bring_up(config, stack: contextlib.ExitStack) -> System:
    specs, processes = stack.enter_context(cluster_processes(config))
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe()
    addrs = {spec.node_id: (spec.host, spec.client_port) for spec in specs}
    gateway = ctx.Process(target=run_gateway, args=(addrs, config.time_scale, child), daemon=True)
    gateway.start()
    stack.callback(procs.reap, gateway)
    child.close()
    try:
        # The gateway answers once its pool reached every replica; it
        # dies instead (EOF here) if one never opened its client port.
        port = await asyncio.to_thread(lambda: parent.recv() if parent.poll(GATEWAY_UP_SECONDS) else None)
    except EOFError:
        port = None
    if port is None:
        raise SimulationError("the gateway process never reported its port")
    http = PipelinedHTTP("127.0.0.1", port)
    await http.connect()
    stack.callback(http.close)
    ws = WSClient("127.0.0.1", port)
    await ws.connect()
    stack.callback(ws.close)
    return System(specs, processes, gateway, http, ws)


async def _cluster_scrape(http: PipelinedHTTP) -> dict[int, dict[str, float]]:
    status, body = await http.fetch("GET", "/v1/cluster/metrics")
    if status != 200:
        return {}
    replicas = json.loads(body)["replicas"]
    return {int(node): dict(entry["metrics"]) for node, entry in replicas.items()}


async def _gateway_counters(http: PipelinedHTTP) -> dict[str, float]:
    _status, body = await http.fetch("GET", "/v1/metrics")
    payload = json.loads(body)
    return {k: float(v) for k, v in payload.items() if isinstance(v, (int, float))}


async def _run(seed: int, seconds: float, tracer) -> RunResult:
    result = RunResult(NAME, seed, seconds, tracer is not None)
    rng = random.Random(seed)
    config = cl.cluster_config(batch=BATCH, link_latency=LINK_LATENCY)
    span = cl.WARMUP_SECONDS + seconds
    writes = loadgen.poisson_schedule(rng, WRITE_RATE, 0.0, span)
    reads = loadgen.poisson_schedule(rng, READ_RATE, 0.0, span)
    # One merged schedule: (offset, is_read, key, client id).
    plan = sorted(
        [(at, False, f"k{rng.randrange(KEYS):02d}", f"c{rng.randrange(CLIENT_IDS):02d}") for at in writes]
        + [(at, True, f"k{rng.randrange(KEYS):02d}", f"c{rng.randrange(CLIENT_IDS):02d}") for at in reads]
    )
    records: dict[str, cl.TxnRecord] = {}
    write_records: list[cl.TxnRecord] = []
    commit_times: list[float] = []
    # Per read: [due, sent, done, key, status, value, writes to key sent before the reply].
    read_log: list[list] = []
    sent_per_key: dict[str, int] = {}
    calibration = calib.CalibrationProcess()

    async with cl.running_cluster(config, _bring_up) as (system, setup):
        gateway, http, ws = system.gateway, system.http, system.ws
        replica_pids = [p.pid for p in system.processes]
        calibration.start()

        async def watch_commits() -> None:
            while True:
                event = await ws.next_json()
                if event is None:
                    return
                if event.get("type") == "commit":
                    record = records.get(event["txid"])
                    if record is not None and not record.commit:
                        record.commit = record.first_ack = record.last_ack = time.monotonic()
                        commit_times.append(record.commit)

        watcher = asyncio.ensure_future(watch_commits())
        t0 = time.monotonic() + 0.05

        def send(index: int) -> None:
            at, is_read, key, client = plan[index]
            due = t0 + at
            now = time.monotonic()
            if is_read:
                entry = [due, now, 0.0, key, 0, None, 0]
                read_log.append(entry)

                def on_read(status, body, done, entry=entry):
                    entry[2], entry[4] = done, status
                    if status == 200:
                        entry[5] = json.loads(body).get("value")
                    entry[6] = sent_per_key.get(entry[3], 0)

                http.request("GET", f"/v1/state/{key}", headers={"x-client-id": client}, on_response=on_read)
                return
            record = cl.TxnRecord(index, f"g{seed}-{index}", due)
            record.sent = now
            records[record.txid] = record
            write_records.append(record)
            sent_per_key[key] = sent_per_key.get(key, 0) + 1

            def on_write(status, body, done, record=record):
                # Anything but a 202 never commits, and counts as failed.
                if status == 202:
                    record.accepted = done

            http.request(
                "POST",
                "/v1/transactions",
                payload={"txid": record.txid, "op": ["incr", key, 1]},
                headers={"x-client-id": client},
                on_response=on_write,
            )

        pacer = asyncio.ensure_future(loadgen.pace(t0, [entry[0] for entry in plan], send))
        start = t0 + cl.WARMUP_SECONDS
        end = start + seconds
        await asyncio.sleep(max(0.0, start - time.monotonic()))
        window = cl.ScrapeWindow()
        window.add(await _cluster_scrape(http))
        counters0 = await _gateway_counters(http)
        replica_cpu_window = cl.CpuWindow(replica_pids)
        gateway_cpu_window = cl.CpuWindow([gateway.pid])
        gen_cpu0 = time.process_time()
        steal0 = procs.steal_seconds()

        for fraction in (0.25, 0.75):
            await asyncio.sleep(max(0.0, start + fraction * seconds - time.monotonic()))
            window.add(await _cluster_scrape(http))
        lateness = await pacer
        await asyncio.sleep(max(0.0, end - time.monotonic()))
        replica_cpu_raw = replica_cpu_window.seconds()
        gateway_cpu_raw = gateway_cpu_window.seconds()
        gen_cpu = time.process_time() - gen_cpu0
        stolen = procs.steal_seconds() - steal0
        window.add(await _cluster_scrape(http))
        counters1 = await _gateway_counters(http)
        slowdown = calibration.stop(start, end)

        measured = [r for r in write_records if start <= r.due < end]
        deadline = time.monotonic() + cl.DRAIN_SECONDS
        while time.monotonic() < deadline and not all(r.commit for r in write_records):
            await asyncio.sleep(0.05)

        # The read path must converge on the executed prefix: once every
        # write committed, each key reads as the number of increments sent.
        final_ok = False
        deadline = time.monotonic() + FINAL_READ_SECONDS
        all_committed = all(r.commit for r in write_records)
        while all_committed and time.monotonic() < deadline and not final_ok:
            final_ok = True
            for key, count in sorted(sent_per_key.items()):
                status, body = await http.fetch("GET", f"/v1/state/{key}")
                if status != 200 or json.loads(body).get("value") != count:
                    final_ok = False
                    break
            if not final_ok:
                await asyncio.sleep(0.25)

        rss = max(procs.peak_rss_mb(pid) for pid in replica_pids + [gateway.pid])
        watcher.cancel()
        # The gateway goes first: a replica that shuts down after the
        # collect with the gateway still connected logs a cancelled
        # connection handler per client.
        http.close()
        ws.close()
        await asyncio.to_thread(procs.reap, gateway)
        pool = ReplicaPool.from_specs(system.specs, time_scale=config.time_scale)
        try:
            await pool.connect()
            replies = await pool.collect()
        finally:
            pool.close()

    evidence = cl.evidence_of(replies)
    checks = result.checks = cl.check_evidence(
        evidence, [r.txid for r in write_records if r.commit]
    )
    checks["final_reads_equal_executed_state"] = final_ok
    answered = [entry for entry in read_log if entry[4] in (200, 404)]
    # A read may lag (it is served from a snapshot) but may never show an
    # increment that had not been sent, and never goes backwards per key.
    checks["reads_within_executed_prefix"] = all((entry[5] or 0) <= entry[6] for entry in answered)
    last_seen: dict[str, int] = {}
    monotone = True
    for entry in sorted(answered, key=lambda e: e[2]):
        value = entry[5] or 0
        monotone = monotone and value >= last_seen.get(entry[3], 0)
        last_seen[entry[3]] = value
    checks["reads_monotone_per_key"] = monotone

    measured_reads = [e for e in read_log if start <= e[0] < end]
    failed_reads = sum(1 for e in measured_reads if not e[2] or e[4] not in (200, 404))
    result.attempted = len(measured) + len(measured_reads)
    result.failed = sum(1 for r in measured if not r.commit) + failed_reads

    elapsed = end - start
    in_window = sorted(t for t in commit_times if start <= t < end)
    commits = len(in_window)
    replica_cpu = replica_cpu_raw / slowdown
    gateway_cpu = gateway_cpu_raw / slowdown
    read_ms = [ms(e[2] - e[0]) for e in measured_reads if e[2]]
    flushes = counters1.get("flushes", 0.0) - counters0.get("flushes", 0.0)
    flushed = counters1.get("flushed_txns", 0.0) - counters0.get("flushed_txns", 0.0)
    submitted = counters1.get("submitted", 0.0) - counters0.get("submitted", 0.0)
    refused = sum(
        counters1.get(k, 0.0) - counters0.get(k, 0.0)
        for k in ("rejected_rate", "rejected_admission", "duplicates")
    )

    blocks, empty, chain_txns = cl.chain_shape(evidence)
    values = result.values
    values["setup_s"] = setup.setup_s
    values["setup_wall_s"] = setup.wall_s
    values.update(cl.latency_metrics(measured))
    # The gateway hides individual acks: no first ack, no ack spread.
    del values["client.first_ack_ms"], values["client.ack_spread_ms"]
    values["commit_tps"] = cl.goodput(measured, start)
    values["wall.commit_tps"] = commits / elapsed
    values["wall.commit_p50_ms"] = values["commit_p50_ms"]
    values["wall.commit_p95_ms"] = values["commit_p95_ms"]
    values["replica_cpu_ms_per_txn"] = 1000.0 * (replica_cpu + gateway_cpu) / max(commits, 1)
    values["peak_rss_mb"] = rss
    values["failed_share"] = result.failed / max(result.attempted, 1)
    values["host.slowdown"] = slowdown
    values["host.steal_share"] = stolen / (elapsed * cl.usable_cores())
    values["cpu_duty"] = (replica_cpu_raw + gateway_cpu_raw + gen_cpu) / (elapsed * cl.usable_cores())
    values["gen.cpu_share"] = gen_cpu / elapsed
    values["gen.lateness_p99_ms"] = ms(percentile(lateness, 99))
    values["read_p50_ms"] = percentile(read_ms, 50)
    values["read_p95_ms"] = percentile(read_ms, 95)
    values["read_samples"] = float(len(read_ms))
    values["gateway.admit_ms_p50"] = median([ms(r.accepted - r.sent) for r in measured if r.accepted])
    values["gateway.batch_fill"] = flushed / flushes if flushes else 0.0
    values["gateway.cpu_ms_per_txn"] = 1000.0 * gateway_cpu / max(commits, 1)
    values["gateway.rejected_share"] = refused / max(submitted + refused, 1.0)
    # What the default 0.5 s snapshot refresh moved: how often, and how
    # long the (whole) chain each of the four replies carried was.
    values["snapshot_refreshes"] = counters1.get("snapshot_refreshes", 0.0) - counters0.get(
        "snapshot_refreshes", 0.0
    )
    values["snapshot_chain_blocks"] = median(
        [
            (window.first[node].get("consensus.blocks", 0.0) + last.get("consensus.blocks", 0.0)) / 2
            for node, last in window.last.items()
        ]
    )
    values["multishot.empty_slot_share"] = empty / blocks if blocks else 0.0
    values["smr.txns_per_block"] = chain_txns / max(blocks - empty, 1)
    values["multishot.stall_count"] = float(cl.stall_count(in_window, 9 * cl.TIME_SCALE))
    values.update(cl.transport_metrics(window, commits, replica_cpu))
    values["obs.trace.finalize_to_ack_ms"] = cl.finalize_to_ack_ms(
        values, measured, values["gateway.admit_ms_p50"]
    )
    if values["gen.lateness_p99_ms"] > 5.0:
        result.notes.append(
            f"generator lateness p99 {values['gen.lateness_p99_ms']:.1f} ms > 5 ms: "
            "this run partly measured the generator"
        )
    if tracer is not None:
        cl.record_generator_spans(tracer, measured)
    return result


def run(seed: int, seconds: float, tracer=None) -> RunResult:
    return asyncio.run(_run(seed, seconds, tracer))
