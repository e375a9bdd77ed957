"""Bench A6 — the Byzantine campaign over the engine matrix.

Two layers, mirroring the A5 bench:

* **Smoke campaign** (tier-1): every attack family × every consensus
  engine, n=4, synchronous network, f=1 Byzantine replica per cell.
  Asserts the paper's headline end to end: TetraBFT stays **safe and
  live** under every unauthenticated deviation, and *no* engine ever
  fails a safety audit (agreement, no-fork, hash linkage, execute-once,
  replay determinism).  The verdicts are persisted to
  ``BENCH_attacks.json``, which CI gates by equality with the
  committed file.
* **Full grid** (heavy, ``REPRO_HEAVY=1``): attack × engine ×
  sync/geo/crash-recovery × n ∈ {4, 16}.  Safety is asserted on every
  cell; liveness only where the fault budget is respected — the
  crash-recovery scenario stacks a network-crashed node on top of the
  ``f`` Byzantine replicas (f+1 total faults at n=4), so n > 3f no
  longer guarantees progress there, only safety.

Smoke invocation (rewrites the ``attack_smoke`` record):
``PYTHONPATH=src python -m pytest benchmarks/test_attacks.py -q``.
"""

from __future__ import annotations

import os

import pytest

from repro.adversary.faulty_engine import ATTACK_NAMES
from repro.eval.attacks import (
    attack_record,
    format_attack_report,
    run_attack_grid,
    run_attack_smoke,
)
from repro.smr import ENGINE_NAMES

heavy = pytest.mark.skipif(
    not os.environ.get("REPRO_HEAVY"),
    reason="full attack grid (6 attacks x 4 engines x 3 scenarios x 2 sizes); "
    "set REPRO_HEAVY=1 to run",
)


def test_attack_campaign_smoke(once, bench_record):
    """Tier-1 slice of A6: every attack × engine, sync, n=4, audited."""
    rows = once(run_attack_smoke)
    print()
    print(format_attack_report(rows))
    assert {row.attack for row in rows} == set(ATTACK_NAMES)
    assert {row.engine for row in rows} == set(ENGINE_NAMES)
    assert len(rows) == len(ATTACK_NAMES) * len(ENGINE_NAMES)
    for row in rows:
        cell = (row.attack, row.engine)
        # Every cell really ran an f-bounded adversary.
        assert row.f == 1 and len(row.faulty) == 1, cell
        # The safety audit must pass on every engine, every attack:
        # zero invariant violations, itemized.
        for name, passed in row.checks.items():
            assert passed, (cell, name)
        assert row.safe, cell
    for row in rows:
        if row.engine == "tetrabft":
            # The paper's claim, end to end: TetraBFT stays safe AND
            # live with f Byzantine replicas under synchrony, for
            # every deviation family.
            assert row.live and row.committed == row.txns, row.attack
    bench_record("attacks", "attack_smoke", [attack_record(row) for row in rows])


@heavy
def test_attack_campaign_full_grid(once):
    """The full A6 grid — what REPRO_HEAVY=1 `python -m repro attacks` runs."""
    rows = once(run_attack_grid)
    print()
    print(format_attack_report(rows))
    assert {row.scenario for row in rows} == {"sync", "geo", "crash-recovery"}
    assert {row.n for row in rows} == {4, 16}
    for row in rows:
        cell = (row.attack, row.engine, row.scenario, row.n)
        # Safety is unconditional — no attack, scenario or size may
        # produce a fork, a double execution or a replay divergence.
        assert row.safe, (cell, row.checks)
        # Liveness is only guaranteed within the fault budget: the
        # crash-recovery scenario adds a network-crashed node on top
        # of the f Byzantine replicas.
        if row.engine == "tetrabft" and row.scenario in ("sync", "geo"):
            assert row.live, cell
