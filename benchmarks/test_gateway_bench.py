"""Bench A8 — the client gateway under open-loop HTTP load.

The tier-1 smoke cell deploys a real n=4 cluster, stands the layered
gateway in front of it, and runs the offered-rate ramp through actual
HTTP connections — so the full handler → service → repository path is
on the hook, not just the consensus plane underneath it.  Asserted
acceptance contract:

* every level's accepted submissions all reach f+1-quorum commit and
  the collected chains/digests pass the SafetyAuditor (safety under
  client-plane load, not just under the cooperative A7 driver);
* the paced (sub-capacity) levels really pace — achieved throughput
  tracks the offered rate — and report finite commit latency;
* the saturation probe really saturates, which pins the bench's
  capacity-finding machinery itself;
* the read path (the gateway applying the blocks the replicas stream
  to it) serves an executed value back over HTTP while the cluster
  keeps running;
* each level's identity, saturation flag and audit verdicts persist to
  ``BENCH_gateway.json`` (the wall-clock readings are printed, not
  persisted).

Smoke invocation (rewrites the ``gateway_smoke`` record):
``PYTHONPATH=src python -m pytest benchmarks/test_gateway_bench.py -q``.
"""

from __future__ import annotations

import math
import os

import pytest

from repro.eval.gateway_bench import (
    SMOKE_LEVELS,
    format_gateway_report,
    run_gateway_cell,
    write_gateway_records,
)

heavy = pytest.mark.skipif(
    not os.environ.get("REPRO_HEAVY"),
    reason="gateway grid (n in {4,7}, 2000 clients); set REPRO_HEAVY=1 to run",
)


def test_gateway_smoke(once):
    """Tier-1 slice of A8: the n=4 ramp, audited, recorded."""
    result = once(run_gateway_cell)
    print()
    print(format_gateway_report(result.rows))
    assert [row.offered for row in result.rows] == list(SMOKE_LEVELS)
    for row in result.rows:
        cell = (row.n, row.offered)
        for name, passed in row.checks.items():
            assert passed, (cell, name)
        assert row.safe, cell
        # Everything the gateway accepted reached quorum commit within
        # the drain window — admission control means no silent loss.
        assert row.committed == row.accepted, cell
        assert row.accepted > 0, cell
        assert not math.isnan(row.p50_ms) and row.p50_ms > 0, cell
    paced = [row for row in result.rows if not row.saturated]
    probe = [row for row in result.rows if row.saturated]
    # The ramp brackets capacity: sub-capacity levels pace, the top
    # level saturates (its goodput fell under 80% of offered).
    assert len(paced) >= 2, [row.offered for row in result.rows]
    assert probe, "the top ramp level must exceed cluster capacity"
    for row in paced:
        assert row.achieved_tps >= 0.8 * row.offered, (row.offered, row.achieved_tps)
    assert result.saturation_offered == min(row.offered for row in probe)
    # The read path served an executed value over HTTP mid-run, and the
    # commit stream reached the WebSocket subscriber.
    assert result.reads_ok
    assert result.ws_events > 0
    write_gateway_records([result], "gateway_smoke")


@heavy
def test_gateway_grid(once):
    """The n ∈ {4, 7} grid — what REPRO_HEAVY=1 `python -m repro
    gateway` runs (2000 logical clients)."""
    results = once(lambda: [run_gateway_cell(n=n, clients=2000) for n in (4, 7)])
    rows = [row for result in results for row in result.rows]
    print()
    print(format_gateway_report(rows))
    assert {row.n for row in rows} == {4, 7}
    for result in results:
        assert result.safe
        assert result.reads_ok
        for row in result.rows:
            assert row.committed == row.accepted, (row.n, row.offered)
    write_gateway_records(results, "gateway_grid")
