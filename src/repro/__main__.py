"""Command-line entry point: ``python -m repro <experiment>``.

Dispatches to the evaluation harness so every paper artifact can be
regenerated without remembering module paths:

    python -m repro table1
    python -m repro fig2
    python -m repro smr
    python -m repro engines
    python -m repro all

``smr`` is the end-to-end state-machine-replication experiment: full
replica clusters under the seeded Uniform/Bursty/HotKey workloads and
the sync/geo/crash-recovery network scenarios, reporting client-observed
commit latency percentiles and commit throughput.

``engines`` is the cross-protocol matrix: the same SMR client path run
over every pluggable consensus engine — pipelined TetraBFT (the
reference), plus PBFT, IT-HotStuff and Li et al. as multi-slot chained
engines — one latency/throughput row per engine × workload cell.  The
default run is the tier-1 smoke slice (sync network, n=4); set
``REPRO_HEAVY=1`` for the full engine × workload × scenario × n grid.

``attacks`` is the Byzantine campaign: every engine attacked by every
deviation family (silence, crash/recover, equivocation, vote
withholding, history fabrication, chaos) with f faulty replicas, each
run audited post hoc by the SafetyAuditor and the verdicts persisted
to ``BENCH_attacks.json``.  Same smoke/heavy split as ``engines``.

``net`` is the deployment experiment: one OS process per replica,
every protocol message serialized through the versioned wire codec and
carried over TCP sockets, with wall-clock client latency/throughput
and a post-run safety audit of the collected chains and state digests
(``BENCH_net.json``).  The smoke slice is n=4 on localhost (lan +
crash + a cheap capacity-bound cell); ``REPRO_HEAVY=1`` adds n=7, the
geo latency matrix, the chained baseline engines, and the capacity
cells at both sizes.

``gateway`` is the client-plane experiment: the layered gateway
service (HTTP/WebSocket handlers → admission/batching/subscription
session service → the shared replica connection pool) deployed in
front of a real cluster and driven *open-loop* — seeded Poisson
arrivals at a ramp of offered rates from hundreds of logical clients,
reporting gateway-observed commit latency percentiles and the
saturation point, with every run's collected chains replayed through
the SafetyAuditor (``BENCH_gateway.json``).  ``REPRO_HEAVY=1`` widens
the ramp to n ∈ {4, 7} with 2000 clients.

Exit status: 0 on success (including ``-h``/``--help``), 1 on bad
usage or an unknown experiment name.
"""

from __future__ import annotations

import sys

from repro.eval import attacks, engine_matrix, fig1_lemmas, fig2_pipeline
from repro.eval import fig3_viewchange, gateway_bench, hardening_ablation
from repro.eval import net_bench, obs_live, responsiveness, scaling, smr_bench
from repro.eval import table1, timeout_ablation, verification_run

EXPERIMENTS = {
    "table1": (table1.main, "Table 1 — protocol comparison"),
    "fig1": (fig1_lemmas.main, "Figure 1 — liveness lemma chain"),
    "fig2": (fig2_pipeline.main, "Figure 2 — pipelined good case"),
    "fig3": (fig3_viewchange.main, "Figure 3 — multi-shot view change"),
    "verification": (verification_run.main, "Section 5 — formal verification"),
    "scaling": (scaling.main, "A1 — communication scaling"),
    "responsiveness": (responsiveness.main, "A2 — optimistic responsiveness"),
    "timeout": (timeout_ablation.main, "A3 — 9Δ timeout justification"),
    "hardening": (hardening_ablation.main, "Ablation — liveness hardening"),
    "smr": (smr_bench.main, "A4 — SMR client latency / throughput"),
    "engines": (engine_matrix.main, "A5 — cross-engine SMR matrix"),
    "attacks": (attacks.main, "A6 — Byzantine campaign over the engines"),
    "net": (net_bench.main, "A7 — deployed clusters over TCP"),
    "gateway": (gateway_bench.main, "A8 — client gateway under open-loop load"),
    "obs": (obs_live.main, "Live in-band metrics scrape of a deployed cluster"),
}


def usage() -> str:
    lines = ["usage: python -m repro <experiment>", "", "experiments:"]
    for name, (_fn, description) in EXPERIMENTS.items():
        lines.append(f"  {name:15s} {description}")
    lines.append(f"  {'all':15s} run every experiment in sequence")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    if any(arg in ("-h", "--help") for arg in args):
        # Asking for help is not an error.
        print(usage())
        return 0
    if len(args) != 1:
        print(usage(), file=sys.stderr)
        return 1
    name = args[0]
    if name == "all":
        for key, (fn, description) in EXPERIMENTS.items():
            print(f"\n##### {key}: {description} #####")
            fn()
        return 0
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}\n\n{usage()}", file=sys.stderr)
        return 1
    EXPERIMENTS[name][0]()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
