"""``perf/run.py --compare A B`` — the before/after table.

Each directory holds the result files of several runs (one per seed)
written by ``perf/run.py``.  One row per (workload, end-to-end metric):
both medians, the relative difference, the metric's bound, and

* ``ok``         B's median is no worse than A's by more than the bound;
* ``worse``      it is;
* ``unresolved`` either side's run-to-run spread (inter-quartile
  distance over its median) is wider than the bound, so a difference of
  the bound's size could not be told from noise.

Exits nonzero if any row is ``worse`` or any run in either directory
failed a correctness check.
"""

from __future__ import annotations

import json
from pathlib import Path

from bench.stats import median, spread


def load(directory: Path) -> dict[str, list[dict]]:
    """workload → its untraced run records, ordered by seed."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.t0.s*.json")):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        runs.setdefault(record["workload"], []).append(record)
    return runs


def main(a_dir: Path, b_dir: Path, contract: dict) -> int:
    a_runs, b_runs = load(a_dir), load(b_dir)
    failed = False
    header = f"{'workload':<22} {'metric':<24} {'A median':>12} {'B median':>12} {'diff':>8} {'bound':>6} {'spread A/B':>13}  verdict"
    print(header)
    for workload in [w["name"] for w in contract["workloads"]]:
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a or not b:
            print(f"{workload:<22} missing from {'A' if not a else 'B'}")
            failed = True
            continue
        for record in a + b:
            if not record["correct"]:
                print(f"{workload:<22} seed {record['seed']}: a correctness check FAILED")
                failed = True
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [r["values"][name] for r in a if name in r["values"]]
            vb = [r["values"][name] for r in b if name in r["values"]]
            if not va or not vb:
                continue
            ma, mb = median(va), median(vb)
            # Positive = B is worse, whichever way the metric points.
            worse_by = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(va), spread(vb)
            if max(sa, sb) > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
                failed = True
            else:
                verdict = "ok"
            print(
                f"{workload:<22} {name:<24} {ma:>12.4f} {mb:>12.4f} {worse_by:>+8.1%} "
                f"{bound:>6.0%} {sa:>6.1%}/{sb:<6.1%}  {verdict}  (n={len(va)}/{len(vb)})"
            )
    return 1 if failed else 0
