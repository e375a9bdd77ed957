#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload; the last line of standard output is one JSON
        object {"correct", "attempted", "failed", "metrics"} carrying
        the end-to-end metrics (--trace 0) or the per-layer metrics
        (--trace 1) that BENCHMARK.json names.
    python3 perf/run.py [--seed N] [--seconds S] [--trace]
        all four workloads untraced, then (--trace) all four traced,
        with the per-layer budget table.
    python3 perf/run.py --compare A B
        two result directories, one row per (workload, end-to-end
        metric): medians, relative difference, bound, verdict.

Results and traces are written under --out (default perf/out/); nothing
else is written.  Any failed correctness check exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Seconds a run may hold back waiting for a quieter host.
QUIET_BUDGET_SECONDS = 12.0


def _import_system() -> None:
    """Put the program (``src/``) and the harness (``perf/``) on the path.

    The benchmark builds nothing: the program is pure Python, imported
    from the checkout.  Without it there is nothing to measure, and the
    command fails here, before printing any result.
    """
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (fails loudly when src/ is absent)


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, traced: bool, out: Path, contract: dict):
    """One run of one workload; returns its RunResult (values merged
    with the layer tape's when traced)."""
    from time import process_time

    from bench import budget, calib, gateway_paced, net_closed, net_durable_crash, sim_chain, tape
    from bench.spans import Tracer

    budget_seconds = min(QUIET_BUDGET_SECONDS, seconds)
    waited, availability, slow = calib.wait_for_quiet(budget_seconds)
    tracer = None
    if traced:
        tracer = Tracer(clock=process_time) if name == sim_chain.NAME else Tracer()
    if name == sim_chain.NAME:
        result = sim_chain.run(seed, seconds, tracer)
    elif name == gateway_paced.NAME:
        result = gateway_paced.run(seed, seconds, tracer)
    elif name == net_closed.NAME:
        result = net_closed.run(seed, seconds, tracer)
    elif name == net_durable_crash.NAME:
        result = net_durable_crash.run(seed, seconds, tracer, out / "scratch")
    else:
        raise SystemExit(f"unknown workload {name!r}")
    result.values["host.waited_s"] = waited
    if waited >= budget_seconds:
        result.notes.append(
            f"started on a busy host (availability {availability:.2f} of a core, "
            f"{slow:.1f}x slow) after waiting {waited:.0f} s"
        )
    if traced:
        tape_values, tape_tracer = tape.run(seed, out / "scratch")
        result.checks["tape.replay_matches_recording"] = tape_values["tape.replay_matches_recording"] == 1.0
        values = result.values
        if name != sim_chain.NAME:
            values.setdefault("multishot.receive_us_per_slot", tape_values["tape.receive_us_per_slot"])
            values.setdefault("multishot.receive_calls_per_slot", values["multishot.frames_per_slot"])
            lines, unattributed = budget.table(
                tape_values,
                values,
                durable=name == net_durable_crash.NAME,
                gateway=name == gateway_paced.NAME,
            )
            values["transport.unattributed_cpu_share"] = unattributed
            result.budget = lines
            # The deployed spans are assembled after the window from
            # timestamps every run takes, so tracing can only show between
            # two passes: against the untraced run of this seed, if --out
            # holds one.
            untraced = _untraced_commit_tps(out, name, seed, seconds)
            if untraced:
                values["trace_overhead_share"] = 1.0 - values["commit_tps"] / untraced
        for key, value in tape_values.items():
            values.setdefault(key, value)
        tracer.write(out / f"{name}.trace.json", {"workload": name, "seed": seed})
        tape_tracer.write(out / f"{name}.tape.trace.json", {"workload": "layer-tape", "seed": seed})
    check_measured(result, contract)
    return result


def _untraced_commit_tps(out: Path, name: str, seed: int, seconds: float) -> float | None:
    try:
        with open(out / f"{name}.t0.s{seed}.json", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        return None
    return record["values"].get("commit_tps") if record.get("seconds") == seconds else None


def _measured(result, name: str) -> bool:
    return math.isfinite(result.values.get(name, math.nan))


def check_measured(result, contract: dict) -> None:
    """A run that comes back without a number it should have measured
    fails: an end-to-end metric that is empty (no samples) or zero, or —
    traced — a per-layer metric of a layer this workload has
    (``metrics.measured_on``) that nothing emitted."""
    from bench.metrics import measured_on

    missing = [
        entry["name"]
        for entry in contract["end_to_end"]
        if not (_measured(result, entry["name"]) and result.values[entry["name"]] > 0)
    ]
    result.checks["end_to_end_metrics_measured"] = not missing
    if result.traced:
        absent = [
            entry["name"]
            for entry in contract["per_layer"]
            if result.workload in measured_on(entry["name"]) and not _measured(result, entry["name"])
        ]
        result.checks["per_layer_metrics_measured"] = not absent
        missing += absent
    if missing:
        result.notes.append(f"no measurement for: {', '.join(missing)}")


def selected(result, contract: dict, traced: bool) -> dict:
    """The metrics BENCHMARK.json names for this kind of run.  The
    result line has to carry a number for each: a per-layer metric of a
    layer this workload does not have reads 0 (``metrics.measured_on``
    says which those are; anything else missing has already failed
    :func:`check_measured`)."""
    wanted = contract["per_layer"] if traced else contract["end_to_end"]
    return {
        entry["name"]: {
            "value": float(result.values[entry["name"]]) if _measured(result, entry["name"]) else 0.0,
            "unit": entry["unit"],
        }
        for entry in wanted
    }


def report(result) -> None:
    from bench.metrics import UNITS

    kind = "traced" if result.traced else "untraced"
    print(f"== {result.workload}  seed {result.seed}  {result.seconds:g} s  {kind}")
    for name in sorted(result.values):
        unit = UNITS.get(name, "")
        print(f"  {name:<44} {result.values[name]:>14.4f} {unit}")
    samples = result.values.get("latency_samples")
    if samples is not None:
        print(f"  (commit latency percentiles over {samples:.0f} samples)")
    for name, ok in sorted(result.checks.items()):
        print(f"  check {name:<42} {'ok' if ok else 'FAILED'}")
    print(f"  attempted {result.attempted}  failed {result.failed}")
    for note in result.notes:
        print(f"  note: {note}")
    for line in result.budget:
        print(f"  budget | {line}")


def save(result, out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{result.workload}.t{int(result.traced)}.s{result.seed}.json"
    payload = {
        "workload": result.workload,
        "seed": result.seed,
        "seconds": result.seconds,
        "traced": result.traced,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "checks": result.checks,
        "notes": result.notes,
        "values": result.values,
        "budget": result.budget,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), type=Path)
    args = parser.parse_args(argv)

    contract = load_contract()
    _import_system()
    from bench import procs

    try:
        return _dispatch(args, parser, contract)
    finally:
        # On every path out, a failed run included: no process outlives the command.
        procs.stop_children()


def _dispatch(args, parser, contract: dict) -> int:
    if args.compare:
        from bench import compare

        return compare.main(args.compare[0], args.compare[1], contract)

    seconds = args.seconds if args.seconds is not None else float(contract["run_seconds"])
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"--workload must be one of {', '.join(names)}")
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.out, contract)
        report(result)
        save(result, args.out)
        print(
            json.dumps(
                {
                    "correct": result.correct,
                    "attempted": int(max(result.attempted, 1)),
                    "failed": int(result.failed),
                    "metrics": selected(result, contract, bool(args.trace)),
                }
            )
        )
        return 0 if result.correct else 1

    started = time.monotonic()
    results = []
    for traced in (False, True) if args.trace else (False,):
        for name in names:
            result = run_workload(name, args.seed, seconds, traced, args.out, contract)
            report(result)
            save(result, args.out)
            results.append(result)
    if args.trace:
        print("== tracing overhead (1 - traced/untraced commit_tps; sim: over its own untraced prefix)")
        for r in results:
            if r.traced:
                print(f"  {r.workload:<24} {r.values.get('trace_overhead_share', math.nan):+.3f}")
    bad = [f"{r.workload}{' (traced)' if r.traced else ''}" for r in results if not r.correct]
    print(f"== {len(results)} runs in {time.monotonic() - started:.0f} s; "
          + (f"FAILED checks in: {', '.join(bad)}" if bad else "every correctness check passed"))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
