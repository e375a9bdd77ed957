"""Tier-1-sized smoke run of the repo benchmark.

Runs every workload for two seconds through the one command the driver
uses and checks the contract between ``BENCHMARK.json``, the metric
table in ``bench/metrics.py`` and what the command prints: every named
metric is emitted with its declared unit, every per-layer metric points
at an existing end-to-end metric and workload, names are well-formed,
the working tree is left as it was found, and no process the command
started is left running or unwaited when it exits.

The numbers themselves are not asserted — two seconds on a shared host
measure nothing — and neither are the deployed workloads' correctness
verdicts (a starved host can miss a drain deadline); the simulator's
are, because they are deterministic.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SECONDS = "2"

sys.path.insert(0, str(HERE))
from bench import metrics  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git_status() -> str | None:
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def _session_members(sid: int) -> list[str]:
    """``pid (comm) state`` of every process whose session is ``sid`` —
    zombies too: one that is still there was never waited for."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue
        head, _, rest = text.rpartition(")")
        fields = rest.split()
        if int(fields[3]) == sid:
            members.append(f"{head}) {fields[0]}")
    return members


def _run(workload: str, trace: int, out: Path) -> dict:
    # A session of its own, so that whatever the command leaves running
    # (a helper reparented to init included) can be found afterwards.
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", SMOKE_SECONDS, "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    assert _session_members(process.pid) == [], "the benchmark left a process running or unwaited"
    assert process.returncode in (0, 1), stderr[-2000:]
    last = stdout.strip().splitlines()[-1]
    payload = json.loads(last)
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(payload["correct"], bool)
    assert isinstance(payload["attempted"], int) and payload["attempted"] >= 1
    assert isinstance(payload["failed"], int) and payload["failed"] >= 0
    return payload


def test_contract_is_well_formed():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["perf"]
    names = [w["name"] for w in CONTRACT["workloads"]]
    assert tuple(names) == metrics.WORKLOADS
    every = names + [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(every) == len(set(every)), "a name is used twice"
    for name in every:
        assert NAME.match(name), name
    for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in CONTRACT["end_to_end"]
    )
    for entry in CONTRACT["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16 and 1 <= len(CONTRACT["per_layer"]) <= 128


def test_contract_matches_the_metric_table():
    table_e2e = [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in metrics.END_TO_END
    ]
    table_layers = [{"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER]
    assert CONTRACT["end_to_end"] == table_e2e
    assert CONTRACT["per_layer"] == table_layers


def test_every_per_layer_metric_names_an_existing_metric_and_workload():
    # Targets are the gated end-to-end metrics plus the end-to-end numbers
    # that live on one workload only (layer "e2e" of the per-layer list).
    targets = {m.name for m in metrics.END_TO_END} | {
        m.name for m in metrics.PER_LAYER if m.layer == "e2e"
    }
    for metric in metrics.PER_LAYER:
        assert metric.layer
        for target, workload in metric.moves:
            assert target in targets, (metric.name, target)
            assert workload in metrics.WORKLOADS, (metric.name, workload)


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload, tmp_path):
    before = _git_status()
    payload = _run(workload, 0, tmp_path)
    declared = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert set(payload["metrics"]) == set(declared)
    for name, reading in payload["metrics"].items():
        assert reading["unit"] == declared[name]
        assert isinstance(reading["value"], float) and reading["value"] > 0, name
    if workload == "sim-chain-n16":
        assert payload["correct"] and payload["failed"] == 0
    assert (tmp_path / f"{workload}.t0.s7.json").exists()
    if before is not None:
        assert _git_status() == before, "the benchmark wrote outside --out"


@pytest.mark.parametrize("workload", ["sim-chain-n16", "net-closed-n4"])
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    before = _git_status()
    payload = _run(workload, 1, tmp_path)
    declared = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert set(payload["metrics"]) == set(declared)
    for name, reading in payload["metrics"].items():
        assert reading["unit"] == declared[name]
        assert isinstance(reading["value"], float)
    # Nothing this workload should have measured came back empty: the
    # run checks that itself (a 0 in the result line may only stand for
    # a layer the workload does not have).
    saved = json.loads((tmp_path / f"{workload}.t1.s7.json").read_text(encoding="utf-8"))
    assert saved["checks"]["per_layer_metrics_measured"], saved["notes"]
    for name in declared:
        if workload in metrics.measured_on(name):
            assert name in saved["values"], name
    spans = json.loads((tmp_path / f"{workload}.trace.json").read_text(encoding="utf-8"))
    assert spans["spans_recorded"] > 0 and len(spans["start"]) == len(spans["parent"])
    # The layer tape runs beside every traced workload.
    codec = [n for n in payload["metrics"] if n.startswith("codec.encode_us.")]
    assert codec and all(payload["metrics"][n]["value"] > 0 for n in codec)
    if before is not None:
        assert _git_status() == before, "the benchmark wrote outside --out"
