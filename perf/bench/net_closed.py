"""``net-closed-n4`` — the capacity workload.

Direct ``ReplicaPool`` (no gateway), closed loop: 64 logical clients
each keep exactly one transaction outstanding and submit the next the
moment the previous one commits.  Callers that wait for a reply are a
closed loop, and it keeps the mempool bounded, so the cluster runs
CPU-bound without an overload collapse.  Codec, transport and engine do
almost all the work; gateway and storage do none.

The measured work is fixed — ``TXNS_PER_SECOND × seconds`` commits
after the warm-up.  ``commit_tps`` and the commit latencies are what a
client sees: commits per *wall* second and wall latencies, in
reference-host seconds.  The workload is CPU-bound, so what the host
withholds stretches the wall clock in proportion, and both ways it does
so are measured beside the run and taken out: the share of the two
cores the hypervisor gave to someone else (``host.steal_share``, from
``/proc/stat``) and how much slower the calibration kernel ran on what
was left (``host.slowdown``).  Across a host phase change eight
identical runs spread 50% on the raw wall throughput (1,310-2,915/s)
and 5.6% corrected; the raw numbers are reported as ``wall.*``.
``replica_cpu_ms_per_txn`` is the other view, read on the replicas' CPU
clocks: a change that trades CPU for waiting moves one and not the
other.  A closed loop ties throughput to latency (Little's law:
64 outstanding = tps × mean latency), so ``commit_tps`` and
``commit_p50_ms`` here move together by construction.
"""

from __future__ import annotations

import asyncio
import functools
import random
import time

from repro.smr.mempool import Transaction

from bench import calib, procs
from bench import cluster as cl
from bench.result import RunResult
from bench.stats import median

NAME = "net-closed-n4"
CLIENTS = 64
BATCH = 10
LINK_LATENCY = 0.0002
KEY_SPACE = 64
#: Commits measured per requested second: about what the cluster
#: sustains per wall second on a quiet host with the chain this long.
TXNS_PER_SECOND = 1000
#: Wall-clock cap on the measured window as a multiple of ``seconds``.
WALL_CAP_FACTOR = 2.5


async def _run(seed: int, seconds: float, tracer) -> RunResult:
    result = RunResult(NAME, seed, seconds, tracer is not None)
    rng = random.Random(seed)
    observer = cl.CommitObserver()
    config = cl.cluster_config(batch=BATCH, link_latency=LINK_LATENCY)
    target = int(TXNS_PER_SECOND * seconds)
    records: list[cl.TxnRecord] = []
    submit_seconds: list[float] = []
    calibration = calib.CalibrationProcess()

    bring_up = functools.partial(cl.pool_cluster, on_ack=observer.on_ack)
    async with cl.running_cluster(config, bring_up) as (cluster, setup):
        pool = cluster.pool

        def submit(client: int) -> None:
            index = len(records)
            txn = Transaction(
                f"c{client:02d}-{index}", ("set", f"key-{rng.randrange(KEY_SPACE)}", index)
            )
            record = cl.TxnRecord(index, txn.txid, 0.0)
            records.append(record)
            observer.track(record)
            t0 = time.monotonic()
            pool.submit(txn)
            record.due = record.sent = t0
            submit_seconds.append(time.monotonic() - t0)

        # The closed loop: a client's commit is its cue to submit again.
        observer.on_commit = lambda record: submit(int(record.txid[1:3]))
        calibration.start()
        for client in range(CLIENTS):
            submit(client)

        await asyncio.sleep(cl.WARMUP_SECONDS)
        window = cl.ScrapeWindow()
        window.add(await cl.scrape_pool(pool))
        cpu = cl.CpuWindow(cluster.pids())
        gen_cpu0 = time.process_time()
        steal0 = procs.steal_seconds()
        start = time.monotonic()
        commits_before = len(observer.commit_times)
        cap = start + WALL_CAP_FACTOR * seconds
        next_scrape = start + 2.0
        while len(observer.commit_times) - commits_before < target and time.monotonic() < cap:
            await asyncio.sleep(0.02)
            if time.monotonic() >= next_scrape:
                # Mid-window scrapes only sample the outbound queue depth.
                window.add(await cl.scrape_pool(pool))
                next_scrape += 2.0
        end = time.monotonic()
        stolen = procs.steal_seconds() - steal0
        replica_cpu_raw = cpu.seconds()
        gen_cpu = time.process_time() - gen_cpu0
        window.add(await cl.scrape_pool(pool))
        observer.on_commit = None
        slowdown = calibration.stop(start, end)

        measured = [r for r in records if start <= r.sent < end]
        deadline = time.monotonic() + cl.DRAIN_SECONDS
        while time.monotonic() < deadline and not all(r.commit for r in measured):
            await asyncio.sleep(0.05)
        rss = max(procs.peak_rss_mb(pid) for pid in cluster.pids())
        replies = await pool.collect()

    elapsed = end - start
    in_window = [t for t in observer.commit_times if start <= t < end]
    commits = len(in_window)
    if commits < target:
        result.notes.append(
            f"measured {commits} of {target} commits: the host delivered too little CPU "
            f"to finish inside {WALL_CAP_FACTOR:g}x the requested seconds"
        )
    evidence = cl.evidence_of(replies)
    result.checks = cl.check_evidence(evidence, [r.txid for r in records if r.commit])
    result.attempted = len(measured)
    result.failed = sum(1 for r in measured if not r.commit)

    replica_cpu = replica_cpu_raw / slowdown
    steal_share = stolen / (elapsed * cl.usable_cores())
    # Reference-host seconds per wall second of the window.
    reference = (1.0 - steal_share) / slowdown
    blocks, empty, chain_txns = cl.chain_shape(evidence)
    values = result.values
    values["setup_s"] = setup.setup_s
    values["setup_wall_s"] = setup.wall_s
    wall = cl.latency_metrics(measured)
    for name in ("commit_p50_ms", "commit_p95_ms", "commit_p99_ms"):
        values[name] = wall[name] * reference
        values[f"wall.{name}"] = wall[name]
    values["client.first_ack_ms"] = wall["client.first_ack_ms"]
    values["client.ack_spread_ms"] = wall["client.ack_spread_ms"]
    values["latency_samples"] = wall["latency_samples"]
    values["commit_tps"] = commits / (elapsed * reference)
    values["wall.commit_tps"] = commits / elapsed
    values["replica_cpu_ms_per_txn"] = 1000.0 * replica_cpu / max(commits, 1)
    values["peak_rss_mb"] = rss
    values["failed_share"] = result.failed / max(result.attempted, 1)
    values["host.slowdown"] = slowdown
    values["host.steal_share"] = steal_share
    values["cpu_duty"] = (replica_cpu_raw + gen_cpu) / (elapsed * cl.usable_cores())
    values["gen.cpu_share"] = gen_cpu / elapsed
    values["client.submit_us"] = 1e6 * median(submit_seconds)
    values["multishot.empty_slot_share"] = empty / blocks if blocks else 0.0
    values["smr.txns_per_block"] = chain_txns / max(blocks - empty, 1)
    values["multishot.stall_count"] = float(cl.stall_count(in_window, 9 * cl.TIME_SCALE))
    values.update(cl.transport_metrics(window, commits, replica_cpu))
    values["obs.trace.finalize_to_ack_ms"] = cl.finalize_to_ack_ms(values, measured)
    if values["cpu_duty"] < 0.8:
        result.notes.append(
            f"cpu duty {values['cpu_duty']:.2f} < 0.8 of the guest's cores: what the "
            "hypervisor withheld does not show as guest CPU time"
        )
    if tracer is not None:
        cl.record_generator_spans(tracer, measured)
    return result


def run(seed: int, seconds: float, tracer=None) -> RunResult:
    return asyncio.run(_run(seed, seconds, tracer))
