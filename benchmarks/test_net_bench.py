"""Bench A7 — deployed clusters: real processes, real sockets.

Unlike every other bench, nothing here runs in simulated time: each
cell spawns one OS process per replica, serializes every protocol
message through the versioned wire codec, and drives transactions over
TCP.  The smoke slice (tier-1 and the CI ``net-smoke`` job) is the
n=4 localhost cluster — every A4 workload on the lan scenario plus the
crash cell that SIGTERMs one replica mid-run (n=4 tolerates f=1) —
and asserts the acceptance contract of the deployment subsystem:

* every cell's collected chains/digests pass the full
  :class:`~repro.verification.audit.SafetyAuditor` (agreement,
  no-fork, hash linkage, execute-once, replay determinism) — real
  sockets change nothing about safety;
* every live replica executes the entire workload (liveness), and the
  measured wall-clock throughput is nonzero;
* each cell's identity, commit counts, kill/restart sets and audit
  verdicts persist to ``BENCH_net.json`` (the wall-clock readings are
  printed, not persisted).

Smoke invocation (rewrites the ``net_smoke`` record):
``PYTHONPATH=src python -m pytest benchmarks/test_net_bench.py -q``.
"""

from __future__ import annotations

import math
import os

import pytest

from repro.eval.net_bench import (
    NET_SCENARIOS,
    NET_WORKLOADS,
    format_net_report,
    net_record,
    run_net_grid,
    run_net_smoke,
)

heavy = pytest.mark.skipif(
    not os.environ.get("REPRO_HEAVY"),
    reason="full net grid (n in {4,7} x workload x scenario + engine slice); "
    "set REPRO_HEAVY=1 to run",
)


def test_net_smoke(once, bench_record):
    """Tier-1 slice of A7: n=4 over TCP, lan + crash + capacity + restart."""
    rows = once(run_net_smoke)
    print()
    print(format_net_report(rows))
    assert {row.workload for row in rows} == set(NET_WORKLOADS)
    assert {row.scenario for row in rows} == {"lan", "crash", "capacity", "restart"}
    for row in rows:
        cell = (row.workload, row.scenario)
        # The audit must pass over real sockets exactly as in
        # simulation: zero invariant violations, itemized.
        for name, passed in row.checks.items():
            assert passed, (cell, name)
        assert row.safe and row.live, cell
        # Every live replica executed the whole workload, at a real
        # (nonzero, wall-clock) rate, with finite measured latency.
        assert row.committed == row.txns, cell
        assert row.txns_per_sec > 0, cell
        assert not math.isnan(row.p50_ms) and row.p50_ms > 0, cell
    crash_rows = [row for row in rows if row.scenario == "crash"]
    assert crash_rows, "the smoke slice must include the kill-one cell"
    for row in crash_rows:
        # One replica was really SIGTERMed and the survivors finalized.
        assert len(row.killed) == 1, row.killed
    restart_rows = [row for row in rows if row.scenario == "restart"]
    assert restart_rows, "the smoke slice must include the kill-and-restart cell"
    for row in restart_rows:
        # The victim was killed, respawned over its data dir, replayed
        # a nonzero prefix from snapshot+WAL, caught the rest up from
        # peers, and converged to the survivors' byte-identical digest
        # (state_agreement above covers the digest; converged pins that
        # the rejoiner was present in the collected evidence).
        assert row.killed == row.restarted and len(row.restarted) == 1, row
        assert row.converged, row
        assert row.recovered_blocks > 0, row.recovered_blocks
    capacity_rows = [row for row in rows if row.scenario == "capacity"]
    assert capacity_rows, "the smoke slice must include the capacity cell"
    for row in capacity_rows:
        # The transport counters and the CPU-duty instrumentation
        # produced real figures: the smoke cell proves the measurement
        # plumbing end to end.
        assert row.flushes > 0 and row.frames_per_flush >= 1.0, row.engine
        assert 0.0 < row.busy_duty <= 1.5, row.busy_duty
    bench_record("net", "net_smoke", [net_record(row) for row in rows])


@heavy
def test_net_full_grid(once, bench_record):
    """The full A7 grid — what REPRO_HEAVY=1 `python -m repro net` runs."""
    rows = once(run_net_grid)
    print()
    print(format_net_report(rows))
    assert {row.n for row in rows} == {4, 7}
    assert {row.scenario for row in rows} == set(NET_SCENARIOS)
    assert {row.engine for row in rows} == {"tetrabft", "pbft", "ithotstuff", "li"}
    for row in rows:
        cell = (row.engine, row.workload, row.scenario, row.n)
        assert row.safe, (cell, row.checks)
        assert row.live and row.committed == row.txns, cell
        assert row.txns_per_sec > 0, cell
    bench_record("net", "net_grid", [net_record(row) for row in rows])
