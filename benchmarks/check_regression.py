"""CI regression gate over the committed BENCH_*.json perf records.

The benchmark smoke runs persist machine-readable perf records —
``BENCH_scaling.json`` (events/sec per scenario × n cell),
``BENCH_smr.json`` (txns/sec per engine × workload × scenario × n cell)
and ``BENCH_net.json`` (wall-clock txns/sec per deployed-cluster cell)
— precisely so the per-PR perf trajectory is data.  This script is the
gate that makes the trajectory binding: it compares freshly produced
records against the committed baselines and fails (exit 1) when any
smoke cell's wall-clock rate regressed by more than the threshold
(default 30%).

Three kinds of cells are gated:

* **aggregate hot-path records** (``event_core_2x`` events/sec,
  ``smr_hot_path_2x`` txns/sec) — measured over large runs, ~1%
  run-to-run variance, always gated;
* **per-cell grid records** — gated only when the cell's measured wall
  clock is above ``--min-wall`` (default 50 ms).  The small-n smoke
  cells finish in a few milliseconds; at that resolution a single-shot
  rate cannot distinguish a 30% regression from scheduler noise (the
  observed run-to-run swing is larger than the threshold), so they are
  reported but not gated.  The large cells and the aggregates carry
  the gate.
* **message-plane ceilings** (messages/Δ and frames/Δ per SMR smoke
  cell) — deterministic simulated-time rates that must not *grow* past
  the threshold; a jump means aggregation silently stopped working or
  a change multiplied protocol traffic.

Usage (what the CI workflow runs after the bench smoke jobs)::

    python benchmarks/check_regression.py --baseline-dir .bench-baseline

where ``.bench-baseline/`` holds copies of the *committed*
``BENCH_scaling.json`` / ``BENCH_smr.json`` taken before the benches
overwrote them.  ``--fresh-dir`` defaults to the repo root.

New cells (present only in the fresh run) are reported, never failed —
benchmarks grow.  The reverse is a hard failure: a cell present in the
committed baseline but **missing from the fresh run** means a cell was
renamed or dropped, and silently passing would let any regression
evade the gate by disappearing.  Refresh the committed baseline in the
same PR when cells legitimately move.  Simulated-time metrics (latency
in Δ, txns/Δ) are deliberately not gated here — they are
deterministic, and the benches themselves assert their invariants.

Override: set ``REPRO_ACCEPT_REGRESSION=1`` to report regressions
without failing — for PRs that knowingly trade throughput for
correctness or features (say so in the PR description).  When a PR
legitimately shifts performance, refresh the committed baselines in
the same PR.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

#: Per-cell grid records: file stem → (record key, identity fields,
#: gated rate metric).
GATED_GRIDS: tuple[tuple[str, str, tuple[str, ...], str], ...] = (
    ("scaling", "throughput", ("scenario", "n"), "events_per_sec"),
    ("smr", "smr_smoke", ("engine", "workload", "scenario", "n"), "txns_per_sec"),
    (
        "smr",
        "engine_matrix_smoke",
        ("engine", "workload", "scenario", "n"),
        "txns_per_sec",
    ),
    ("net", "net_smoke", ("engine", "workload", "scenario", "n"), "txns_per_sec"),
    # Gateway levels gate on paced throughput: only unsaturated rows
    # carry ``paced_tps`` (the arrival process pins it to the offered
    # rate), so the noisy capacity probes drop out of the gate.
    ("gateway", "gateway_smoke", ("engine", "n", "offered"), "paced_tps"),
)

#: Every BENCH file stem the gate reads.
BENCH_STEMS = ("scaling", "smr", "net", "gateway")

#: Aggregate hot-path records: file stem → (record key, rate metric).
#: Dict-shaped, measured over large runs — always gated.
GATED_AGGREGATES: tuple[tuple[str, str], ...] = (
    ("scaling", "event_core_2x"),
    ("smr", "smr_hot_path_2x"),
    # The gateway's saturation point: the first offered rate of the
    # ramp whose level fell under 80% goodput.  The ramp levels bracket
    # capacity with wide margins, so this is deterministic per ramp
    # shape — a drop means the gateway lost a whole capacity tier.
    ("gateway", "gateway_saturation"),
)

#: Ceiling-gated cells: simulated-time message-plane rates (messages/Δ
#: and frames/Δ) that must not *grow* past the threshold.  These are
#: deterministic — the same seed replays the same run — so they gate
#: regardless of wall clock: a jump means the message plane regressed
#: (batching silently off, or a protocol change multiplying traffic).
GATED_CEILINGS: tuple[tuple[str, str, tuple[str, ...], str], ...] = (
    ("smr", "smr_smoke", ("engine", "workload", "scenario", "n"), "messages_per_delay"),
    ("smr", "smr_smoke", ("engine", "workload", "scenario", "n"), "frames_per_delay"),
    (
        "smr",
        "engine_matrix_smoke",
        ("engine", "workload", "scenario", "n"),
        "messages_per_delay",
    ),
    (
        "smr",
        "engine_matrix_smoke",
        ("engine", "workload", "scenario", "n"),
        "frames_per_delay",
    ),
    # Gateway commit latency on the *paced* (unsaturated) levels: the
    # consensus pipeline sets these, not host load, so p50/p99 must
    # not grow past the threshold.
    ("gateway", "gateway_smoke", ("engine", "n", "offered"), "paced_p50_ms"),
    ("gateway", "gateway_smoke", ("engine", "n", "offered"), "paced_p99_ms"),
)

_AGGREGATE_METRICS = {
    "event_core_2x": "events_per_sec",
    "smr_hot_path_2x": "txns_per_sec",
    "gateway_saturation": "saturation_offered",
}

#: Observability columns every freshly produced ``net_smoke`` row must
#: carry: the per-replica series scraped in-band mid-run.  The gate is
#: *presence-only* — live values (a commit rate, a queue depth) are
#: point-in-time reads and legitimately vary run to run, but a row
#: that lost the columns means the scrape plumbing broke silently.
REQUIRED_NET_OBS_COLUMNS = (
    "commit_rate",
    "view_changes",
    "mempool_depth",
    "queue_lag",
    "fsyncs",
    "wal_bytes",
    "snapshots",
)


def missing_obs_columns(fresh_net: dict) -> list[str]:
    """Presence check over the fresh smoke rows (see
    :data:`REQUIRED_NET_OBS_COLUMNS`); returns failure lines.

    Scoped to ``net_smoke`` — the one key every CI net run rewrites —
    so stale heavy-grid rows from older builds cannot false-fail."""
    failures = []
    for row in fresh_net.get("net_smoke", []) or []:
        if not isinstance(row, dict):
            continue
        missing = [col for col in REQUIRED_NET_OBS_COLUMNS if col not in row]
        if missing:
            ident = {k: row.get(k) for k in ("engine", "workload", "scenario", "n")}
            failures.append(
                f"net/net_smoke {ident}: fresh row is missing scraped "
                f"metric column(s) {missing} — the obs scrape plumbing broke"
            )
    return failures


def load_records(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except OSError:
        return {}
    except ValueError:
        print(f"WARNING: {path} is not valid JSON; treating as empty")
        return {}
    return data if isinstance(data, dict) else {}


def cell_wall_seconds(row: dict, metric: str) -> float | None:
    """Measured wall clock of one cell, inferred when not recorded."""
    wall = row.get("wall_seconds")
    if isinstance(wall, (int, float)):
        return float(wall)
    # SMR rows record committed work and its rate; wall follows.
    committed = row.get("committed")
    rate = row.get(metric)
    if isinstance(committed, (int, float)) and rate:
        return float(committed) / float(rate)
    return None


def index_cells(
    records: dict, key: str, identity: tuple[str, ...], metric: str
) -> dict[tuple, tuple[float, float | None]]:
    """cell id → (rate, wall seconds or None) for one grid record."""
    cells = {}
    for row in records.get(key, []) or []:
        if not isinstance(row, dict) or metric not in row:
            continue
        cell_id = tuple(row.get(field) for field in identity)
        cells[cell_id] = (float(row[metric]), cell_wall_seconds(row, metric))
    return cells


def compare(
    baseline_dir: Path, fresh_dir: Path, threshold: float, min_wall: float
) -> tuple[list[str], list[str]]:
    """Returns (regressions, notes); a non-empty first list fails the gate."""
    regressions: list[str] = []
    notes: list[str] = []

    def judge(
        label: str,
        metric: str,
        base_rate: float,
        rate: float,
        gated: bool,
        ceiling: bool = False,
    ) -> None:
        if base_rate <= 0:
            notes.append(f"{label}: non-positive baseline {base_rate}")
            return
        ratio = rate / base_rate
        line = f"{label}: {metric} {base_rate:,.0f} → {rate:,.0f} " f"({(ratio - 1) * 100:+.1f}%)"
        if not gated:
            notes.append(f"{line} [noisy cell, not gated]")
        elif ceiling and ratio > 1.0 + threshold:
            regressions.append(f"{line} [ceiling]")
        elif not ceiling and ratio < 1.0 - threshold:
            regressions.append(line)
        else:
            notes.append(line)

    baselines = {stem: load_records(baseline_dir / f"BENCH_{stem}.json") for stem in BENCH_STEMS}
    fresh_all = {stem: load_records(fresh_dir / f"BENCH_{stem}.json") for stem in BENCH_STEMS}

    regressions.extend(missing_obs_columns(fresh_all["net"]))

    for stem, key in GATED_AGGREGATES:
        metric = _AGGREGATE_METRICS[key]
        base = baselines[stem].get(key)
        new = fresh_all[stem].get(key)
        label = f"{stem}/{key}"
        if not isinstance(base, dict) or metric not in base:
            notes.append(f"{label}: no baseline — skipping")
            continue
        if not isinstance(new, dict) or metric not in new:
            regressions.append(
                f"{label}: in committed baseline but missing from fresh run "
                "— renamed or dropped? refresh the baseline in the same PR"
            )
            continue
        judge(label, metric, float(base[metric]), float(new[metric]), gated=True)

    for stem, key, identity, metric in GATED_GRIDS:
        baseline = index_cells(baselines[stem], key, identity, metric)
        fresh = index_cells(fresh_all[stem], key, identity, metric)
        if not baseline:
            notes.append(f"{stem}/{key}: no baseline cells — skipping")
            continue
        for cell_id, (base_rate, base_wall) in sorted(baseline.items(), key=repr):
            label = f"{stem}/{key} {dict(zip(identity, cell_id))}"
            if cell_id not in fresh:
                regressions.append(
                    f"{label}: in committed baseline but missing from fresh "
                    "run — renamed or dropped? refresh the baseline in the "
                    "same PR"
                )
                continue
            rate, wall = fresh[cell_id]
            # Gate when EITHER side is measurably slow: two fast walls
            # mean pure timer noise, but a cell that jumped from
            # milliseconds to a measurable wall is a real regression
            # and must not hide behind its formerly-fast baseline.
            walls = [w for w in (base_wall, wall) if w is not None]
            gated = bool(walls) and max(walls) >= min_wall
            judge(label, metric, base_rate, rate, gated)
        for cell_id in sorted(set(fresh) - set(baseline), key=repr):
            notes.append(f"{stem}/{key} {dict(zip(identity, cell_id))}: new cell (no baseline)")

    for stem, key, identity, metric in GATED_CEILINGS:
        baseline = index_cells(baselines[stem], key, identity, metric)
        fresh = index_cells(fresh_all[stem], key, identity, metric)
        if not baseline:
            notes.append(f"{stem}/{key} ({metric}): no baseline cells — skipping")
            continue
        for cell_id, (base_rate, _) in sorted(baseline.items(), key=repr):
            label = f"{stem}/{key} {dict(zip(identity, cell_id))}"
            if cell_id not in fresh:
                regressions.append(
                    f"{label}: {metric} in committed baseline but missing "
                    "from fresh run — renamed or dropped? refresh the "
                    "baseline in the same PR"
                )
                continue
            rate, _ = fresh[cell_id]
            judge(label, metric, base_rate, rate, gated=True, ceiling=True)
    return regressions, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        required=True,
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        default=Path("."),
        help="directory holding the freshly produced BENCH_*.json (default: .)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="maximum tolerated fractional slowdown per cell (default 0.30)",
    )
    parser.add_argument(
        "--min-wall",
        type=float,
        default=0.05,
        help="minimum measured cell wall clock (s) for the cell to be "
        "gated rather than merely reported (default 0.05)",
    )
    args = parser.parse_args(argv)
    regressions, notes = compare(args.baseline_dir, args.fresh_dir, args.threshold, args.min_wall)
    for note in notes:
        print(f"  ok    {note}")
    for line in regressions:
        print(f"  SLOW  {line}")
    if not regressions:
        print(f"regression gate: all gated cells within {args.threshold:.0%}")
        return 0
    print(
        f"regression gate: {len(regressions)} cell(s) regressed more than "
        f"{args.threshold:.0%}"
    )
    if os.environ.get("REPRO_ACCEPT_REGRESSION"):
        print("REPRO_ACCEPT_REGRESSION set — reporting only, not failing")
        return 0
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
