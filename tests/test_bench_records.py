"""Column census and byte stability of the tracked ``BENCH_*.json``.

The five record files are gated in CI by ``git diff --exit-code``, so
they may hold only what a seed determines.  Three pins keep it so: the
committed files carry no name outside the allowlists below, each record
writer emits exactly its allowlist, and a simulated cell renders to the
same bytes twice.  The allowlists are exact names, not patterns —
``saturated`` is a verdict and contains both ``rate`` and ``ratio``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.eval.attacks import AttackRow, attack_record
from repro.eval.gateway_bench import GatewayRow, gateway_record
from repro.eval.net_bench import NetRow, net_record
from repro.eval.smr_bench import SMRRow, run_smr_bench
from repro.verification.audit import SAFETY_CHECKS

REPO_ROOT = Path(__file__).resolve().parents[1]

# benchmarks/ is a separate pytest root, not a package: load its
# conftest by path for the SMR row serializer the A4/A5 benches share.
_SPEC = importlib.util.spec_from_file_location(
    "bench_conftest", REPO_ROOT / "benchmarks" / "conftest.py"
)
_bench_conftest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_bench_conftest)
smr_row_record = _bench_conftest.smr_row_record

AUDIT_CHECKS = set(SAFETY_CHECKS)
SCALING_COLUMNS = {"scenario", "n", "events", "messages_per_delay", "frames_per_delay", "decided"}
SMR_COLUMNS = {
    "engine",
    "workload",
    "scenario",
    "n",
    "txns",
    "committed",
    "p50_delays",
    "p95_delays",
    "p99_delays",
    "txns_per_delay",
    "messages_per_delay",
    "frames_per_delay",
    "mempool_peak",
}
ATTACK_COLUMNS = {
    "attack",
    "engine",
    "scenario",
    "n",
    "f",
    "faulty",
    "txns",
    "committed",
    "checks",
    "safe",
    "live",
    "sim_duration",
}
NET_COLUMNS = {
    "engine",
    "workload",
    "scenario",
    "n",
    "txns",
    "committed",
    "killed",
    "restarted",
    "safe",
    "live",
    "converged",
    "checks",
}
GATEWAY_COLUMNS = {"engine", "n", "offered", "clients", "saturated", "safe", "checks"}

#: The aggregate beside the gateway ramp rows.
GATEWAY_AGGREGATE = {"saturation_offered", "reads_ok", "ws_evicted", "safe"}

#: Record keys per file — smoke and ``REPRO_HEAVY=1`` alike, since one
#: writer serves both.
SMR_KEYS = {"end_to_end_n4", "smr_smoke", "engine_matrix_smoke", "batching_ablation_n16"}
GATEWAY_KEYS = {"gateway_smoke", "gateway_grid", "gateway_saturation"}

#: Every name a file may contain at any depth: its record keys, the
#: columns under them, and the audit's check names where rows carry
#: verdicts (``end_to_end_n4`` adds ``sim_duration`` to two SMR columns).
ALLOWED = {
    "scaling": {"throughput"} | SCALING_COLUMNS,
    "smr": SMR_KEYS | SMR_COLUMNS | {"sim_duration"},
    "attacks": {"attack_smoke", "attack_grid"} | ATTACK_COLUMNS | AUDIT_CHECKS,
    "net": {"net_smoke", "net_grid"} | NET_COLUMNS | AUDIT_CHECKS,
    "gateway": GATEWAY_KEYS | GATEWAY_COLUMNS | GATEWAY_AGGREGATE | AUDIT_CHECKS,
}


def _names(node):
    """Every dict key under ``node``, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _names(value)
    elif isinstance(node, list):
        for item in node:
            yield from _names(item)


@pytest.mark.parametrize("stem", sorted(ALLOWED))
def test_committed_records_hold_only_allowlisted_names(stem):
    data = json.loads((REPO_ROOT / f"BENCH_{stem}.json").read_text(encoding="utf-8"))
    stray = set(_names(data)) - ALLOWED[stem]
    assert not stray, f"BENCH_{stem}.json: {sorted(stray)} not in the allowlist"


def test_record_writers_emit_exactly_their_allowlist():
    smr = SMRRow(
        workload="uniform",
        scenario="sync",
        n=4,
        txns=10,
        committed=10,
        p50=5.5,
        p95=6.0,
        p99=6.0,
        wall_seconds=0.01,
        sim_duration=13.0,
        blocks=5,
        mempool_peak=10,
    )
    assert set(smr_row_record(smr)) == SMR_COLUMNS
    attack = AttackRow(
        attack="silence",
        engine="tetrabft",
        scenario="sync",
        n=4,
        f=1,
        faulty=(1,),
        txns=10,
        committed=10,
        checks={},
        safe=True,
        live=True,
        sim_duration=35.0,
    )
    assert set(attack_record(attack)) == ATTACK_COLUMNS
    net = NetRow(
        engine="tetrabft",
        workload="uniform",
        scenario="lan",
        n=4,
        txns=10,
        committed=10,
        p50_ms=40.0,
        p95_ms=70.0,
        p99_ms=80.0,
        wall_seconds=0.2,
        blocks=8,
        killed=(),
        safe=True,
        live=True,
        checks={},
    )
    assert set(net_record(net)) == NET_COLUMNS
    level = GatewayRow(
        engine="tetrabft",
        n=4,
        offered=100.0,
        clients=500,
        accepted=100,
        committed=100,
        rejected=0,
        achieved_tps=110.0,
        p50_ms=60.0,
        p99_ms=140.0,
        saturated=False,
        safe=True,
        checks={},
    )
    assert set(gateway_record(level)) == GATEWAY_COLUMNS


def test_simulated_cell_renders_to_the_same_bytes_twice():
    def render() -> str:
        row = run_smr_bench("uniform", "sync", 4, txns=40, batch=5)
        return json.dumps(smr_row_record(row), sort_keys=True)

    assert render() == render()
