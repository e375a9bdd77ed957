"""``net-durable-crash-n4`` — the fault and durability workload.

Direct pool, ``DiskStorage`` in a fresh directory (real fsyncs), a
fixed-interval open loop.  Replica 1 is terminated a third of the way
through the measured window and respawned over its data dir at the
half.  This uses the same layers differently: the engine's
view-change path instead of the good case, storage's append+fsync and
then its recover/replay path, state transfer.  Requests keep arriving
on schedule during the outage, so the ones due while a dead leader's
slot times out are counted.

The offered 100 txn/s is more than three live leaders and one 9Δ
timeout per rotation can commit, so a backlog builds for as long as the
victim is down and drains after it: with the outage a sixth of the
window, a quarter of the requests are slow and ``commit_p50_ms`` sits
inside the healthy mode (an outage of a third put the median on the
edge between the two modes, where it read anything from 139 to 313 ms).
"""

from __future__ import annotations

import asyncio
import functools
import multiprocessing
import random
import shutil
import tempfile
import time
from pathlib import Path
from time import process_time

from repro.net.codec import StartRun
from repro.net.replica_main import run_replica
from repro.smr.mempool import Transaction
from repro.smr.replica import Replica
from repro.storage.disk import DiskStorage

from bench import calib, loadgen, procs
from bench import cluster as cl
from bench.result import RunResult
from bench.stats import median, ms, percentile

NAME = "net-durable-crash-n4"
RATE = 100.0
BATCH = 10
LINK_LATENCY = 0.020
KEY_SPACE = 64
VICTIM = 1
KILL_AT = 1 / 3
RESPAWN_AT = 1 / 2
#: Seconds after the last due request for the rejoiner to converge.
CONVERGE_SECONDS = 15.0


async def _run(seed: int, seconds: float, tracer, scratch: Path) -> RunResult:
    result = RunResult(NAME, seed, seconds, tracer is not None)
    rng = random.Random(seed)
    observer = cl.CommitObserver()
    observer.watch = VICTIM
    data_dir = Path(tempfile.mkdtemp(prefix="crash-", dir=scratch))
    config = cl.cluster_config(batch=BATCH, link_latency=LINK_LATENCY, data_dir=str(data_dir))
    offsets = loadgen.fixed_schedule(RATE, 0.0, cl.WARMUP_SECONDS + seconds)
    records: list[cl.TxnRecord] = []
    submit_seconds: list[float] = []
    calibration = calib.CalibrationProcess()
    recovered_share = 0.0

    try:
        bring_up = functools.partial(cl.pool_cluster, on_ack=observer.on_ack)
        async with cl.running_cluster(config, bring_up) as (cluster, setup):
            pool, processes, specs = cluster.pool, cluster.processes, cluster.specs
            calibration.start()
            t0 = time.monotonic() + 0.05
            start = t0 + cl.WARMUP_SECONDS
            end = start + seconds
            kill_time = start + KILL_AT * seconds
            respawn_time = start + RESPAWN_AT * seconds

            def send(index: int) -> None:
                txn = Transaction(f"d{index}", ("set", f"key-{rng.randrange(KEY_SPACE)}", index))
                record = cl.TxnRecord(index, txn.txid, t0 + offsets[index])
                records.append(record)
                observer.track(record)
                record.sent = time.monotonic()
                pool.submit(txn)
                submit_seconds.append(time.monotonic() - record.sent)

            pacer = asyncio.ensure_future(loadgen.pace(t0, offsets, send))

            await asyncio.sleep(max(0.0, start - time.monotonic()))
            window = cl.ScrapeWindow()
            window.add(await cl.scrape_pool(pool))
            cpu = cl.CpuWindow(cluster.pids())
            gen_cpu0 = time.process_time()
            steal0 = procs.steal_seconds()

            # -- the fault: terminate, copy the data dir, respawn ----------------
            await asyncio.sleep(max(0.0, kill_time - time.monotonic()))
            window.add(await cl.scrape_pool(pool))
            cpu.retire(processes[VICTIM].pid)
            victim_rss = procs.peak_rss_mb(processes[VICTIM].pid)
            processes[VICTIM].terminate()
            killed_at = time.monotonic()
            pool.exclude(VICTIM)
            await asyncio.to_thread(processes[VICTIM].join, 5.0)
            frozen = data_dir / "victim-copy"
            await asyncio.to_thread(shutil.copytree, specs[VICTIM].data_dir, frozen)

            await asyncio.sleep(max(0.0, respawn_time - time.monotonic()))
            process = multiprocessing.get_context("spawn").Process(
                target=run_replica, args=(specs[VICTIM],), daemon=True
            )
            process.start()
            respawned_at = time.monotonic()
            processes[VICTIM] = process
            cpu.admit(process.pid)
            await pool.readmit(VICTIM)
            pool.send_to(VICTIM, StartRun())

            lateness = await pacer
            await asyncio.sleep(max(0.0, end - time.monotonic()))
            replica_cpu_raw = cpu.seconds()
            gen_cpu = time.process_time() - gen_cpu0
            stolen = procs.steal_seconds() - steal0
            window.add(await cl.scrape_pool(pool))
            slowdown = calibration.stop(start, end)

            measured = [r for r in records if start <= r.due < end]
            deadline = time.monotonic() + cl.DRAIN_SECONDS
            while time.monotonic() < deadline and not all(r.commit for r in measured):
                await asyncio.sleep(0.05)
            # Convergence: the rejoiner must apply everything that committed.
            committed = {r.txid for r in records if r.commit}
            deadline = time.monotonic() + CONVERGE_SECONDS
            converged = False
            while time.monotonic() < deadline and not converged:
                snaps = await pool.snapshot(timeout=5.0)
                reply = snaps.get(VICTIM)
                converged = reply is not None and committed <= set(reply.applied_txids)
                if not converged:
                    await asyncio.sleep(0.2)
            rss = max([victim_rss] + [procs.peak_rss_mb(pid) for pid in cluster.pids()])
            replies = await pool.collect()

        recover_ms_per_kblock = _time_recovery(frozen)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    evidence = cl.evidence_of(replies)
    checks = result.checks = cl.check_evidence(evidence, [r.txid for r in records if r.commit])
    checks["rejoiner_converged"] = converged
    # Nothing is in flight after the drain and empty blocks leave the
    # state untouched, so every replica must report one digest even if
    # the collect caught them a block apart.
    digests = {ev.node_id: ev.state_digest for ev in evidence}
    checks["rejoiner_digest_equals_survivors"] = (
        VICTIM in digests and len(set(digests.values())) == 1
    )
    result.attempted = len(measured)
    result.failed = sum(1 for r in measured if not r.commit)

    elapsed = end - start
    in_window = sorted(t for t in observer.commit_times if start <= t < end)
    commits = len(in_window)
    replica_cpu = replica_cpu_raw / slowdown
    outage = [t for t in in_window if killed_at <= t <= respawned_at]
    gaps = [b - a for a, b in zip(outage, outage[1:])]
    after = [at for at, record in observer.watched_acks if record.due >= respawned_at]
    victim_reply = replies.get(VICTIM)
    if victim_reply is not None:
        recovered = cl.items_of(victim_reply).get("storage.recovered_blocks", 0.0)
        recovered_share = recovered / max(len(victim_reply.chain), 1)

    blocks, empty, chain_txns = cl.chain_shape(evidence)
    values = result.values
    values["setup_s"] = setup.setup_s
    values["setup_wall_s"] = setup.wall_s
    values.update(cl.latency_metrics(measured))
    values["commit_tps"] = cl.goodput(measured, start)
    values["wall.commit_tps"] = commits / elapsed
    values["wall.commit_p50_ms"] = values["commit_p50_ms"]
    values["wall.commit_p95_ms"] = values["commit_p95_ms"]
    values["replica_cpu_ms_per_txn"] = 1000.0 * replica_cpu / max(commits, 1)
    values["peak_rss_mb"] = rss
    values["failed_share"] = result.failed / max(result.attempted, 1)
    values["host.slowdown"] = slowdown
    values["host.steal_share"] = stolen / (elapsed * cl.usable_cores())
    values["cpu_duty"] = (replica_cpu_raw + gen_cpu) / (elapsed * cl.usable_cores())
    values["gen.cpu_share"] = gen_cpu / elapsed
    values["gen.lateness_p99_ms"] = ms(percentile(lateness, 99))
    values["client.submit_us"] = 1e6 * median(submit_seconds)
    values["fault_stall_ms"] = ms(max(gaps)) if gaps else 0.0
    values["recovery_s"] = (min(after) - respawned_at) if after else 0.0
    checks["rejoiner_acked_after_respawn"] = bool(after)
    values["storage.recover_ms_per_kblock"] = recover_ms_per_kblock / slowdown
    values["storage.recovered_blocks_share"] = recovered_share
    values["multishot.empty_slot_share"] = empty / blocks if blocks else 0.0
    values["smr.txns_per_block"] = chain_txns / max(blocks - empty, 1)
    values["multishot.stall_count"] = float(cl.stall_count(in_window, 9 * cl.TIME_SCALE))
    values.update(cl.transport_metrics(window, commits, replica_cpu))
    values["obs.trace.finalize_to_ack_ms"] = cl.finalize_to_ack_ms(values, measured)
    if values["gen.lateness_p99_ms"] > 5.0:
        result.notes.append(
            f"generator lateness p99 {values['gen.lateness_p99_ms']:.1f} ms > 5 ms: "
            "this run partly measured the generator"
        )
    if tracer is not None:
        cl.record_generator_spans(tracer, measured)
    return result


def _time_recovery(frozen: Path) -> float:
    """``DiskStorage.recover()`` + ``Replica.bootstrap`` on a copy of the
    victim's data dir as the kill left it: CPU ms per 1,000 blocks."""
    from repro.core import ProtocolConfig
    from repro.smr import engine_factory

    storage = DiskStorage(frozen)
    t0 = process_time()
    recovered = storage.recover()
    blocks = len(recovered.chain) if recovered is not None else 0
    if recovered is not None:
        factory = engine_factory("tetrabft", ProtocolConfig.create(cl.N), max_slots=cl.MAX_SLOTS)
        Replica(VICTIM, max_batch=BATCH, engine_factory=factory).bootstrap(recovered.chain)
    spent = process_time() - t0
    storage.close()
    return 1000.0 * spent / (blocks / 1000.0) if blocks else 0.0


def run(seed: int, seconds: float, tracer=None, scratch: Path | None = None) -> RunResult:
    scratch = scratch or Path(tempfile.gettempdir())
    scratch.mkdir(parents=True, exist_ok=True)
    return asyncio.run(_run(seed, seconds, tracer, scratch))
