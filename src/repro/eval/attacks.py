"""Experiment A6 — adversarial campaigns over the engine matrix.

A5 established that every pluggable consensus engine runs the same
end-to-end client path; this experiment establishes what each engine
guarantees *under attack*, which is the paper's actual headline: the
claims are about unauthenticated Byzantine faults, not good-case
latency.  Each cell of the campaign grid is one full SMR cluster run —
mempool, dedup, execution, digests — with an f-bounded set of replicas
wrapped in a :class:`~repro.adversary.faulty_engine.FaultyEngine`
driving one deviation family (silence, scheduled crash/recover, leader
equivocation, vote withholding, history fabrication, chaos), followed
by a post-hoc :class:`~repro.verification.audit.SafetyAuditor` pass
that replays the honest replicas' finalized chains and state digests
through the run-level invariants: agreement, no-fork, hash-linkage,
execute-once, replay determinism, and liveness at the horizon.

The verdicts are machine-readable (``BENCH_attacks.json``) and a
function of the seed, which is what lets CI gate on them by equality
with the committed file: TetraBFT must stay **safe and live** with
``f`` Byzantine replicas on every attack family, and *no* engine may
ever fail a safety audit (the chained baselines are allowed to lose
liveness — their simplified recovery logic is crash-fault-grade — but
never to fork).

``python -m repro attacks`` runs the tier-1 smoke slice (every attack ×
every engine, synchronous network, n=4) and writes the verdicts next
to the other BENCH records; set ``REPRO_HEAVY=1`` for the full attack ×
engine × scenario × n grid.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.config import repro_config
from repro.adversary.faulty_engine import ATTACK_NAMES, ATTACKS, faulty_factory
from repro.core import ProtocolConfig
from repro.eval.report import format_table, merge_record
from repro.eval.scaling import scenario_policy
from repro.eval.smr_bench import SMR_SCENARIOS, build_workload
from repro.metrics.smr_trackers import SMRTrackers
from repro.sim import Simulation
from repro.smr import Replica, engine_factory
from repro.smr.engine import ENGINE_NAMES
from repro.verification.audit import SafetyAuditor

#: Cluster sizes of the full campaign grid (same rationale as A5: the
#: chained baselines pay n² per phase, and every cell already pays view
#: changes, so the heavy grid stays at small n).
CAMPAIGN_NS = (4, 16)

#: Default BENCH record written by ``python -m repro attacks`` —
#: anchored at the repo root (next to the other BENCH_*.json records,
#: where the CI artifact and ``git diff`` steps expect them) rather
#: than the CWD.
BENCH_PATH = Path(__file__).resolve().parents[3] / "BENCH_attacks.json"


@dataclass
class AttackRow:
    """One (attack, engine, scenario, n) cell: run stats + audit verdict.

    ``safe`` and ``live`` are the :class:`AuditReport`'s own verdicts,
    captured at audit time rather than re-derived, so the campaign can
    never disagree with the auditor about what "safe" means.
    """

    attack: str
    engine: str
    scenario: str
    n: int
    f: int
    faulty: tuple[int, ...]
    txns: int
    committed: int
    checks: dict[str, bool]
    safe: bool
    live: bool
    sim_duration: float

    @property
    def verdict(self) -> str:
        if self.safe and self.live:
            return "safe+live"
        if self.safe:
            return "safe"
        return "UNSAFE"


def place_adversaries(n: int, f: int, seed: int = 0, avoid: Iterable[int] = ()) -> tuple[int, ...]:
    """Deterministic f-bounded adversary placement.

    Samples ``f`` distinct ids from ``0..n-1`` minus ``avoid`` (the
    scenario's network-faulty nodes — stacking a Byzantine replica on a
    crash-scheduled one would waste the adversary budget) using a
    seeded RNG, so every cell of a campaign is reproducible yet the
    placement varies across seeds.
    """
    rng = random.Random(seed * 9_176_141 + n)
    candidates = [i for i in range(n) if i not in set(avoid)]
    if f > len(candidates):
        raise ValueError(f"cannot place {f} adversaries among {len(candidates)} candidates")
    return tuple(sorted(rng.sample(candidates, f)))


def run_attack_cell(
    attack: str,
    engine: str,
    scenario: str,
    n: int,
    txns: int = 30,
    batch: int = 10,
    seed: int = 0,
    horizon: float = 200.0,
) -> AttackRow:
    """One campaign cell: a full adversarial SMR run plus its audit.

    ``f = (n-1)//3`` replicas run the named attack through a
    :class:`FaultyEngine` wrapping the named engine; the rest are
    honest.  Liveness is judged on the honest replicas only (Byzantine
    nodes owe nobody an execution), and the audit replays only their
    chains — a Byzantine replica's local state is unconstrained by
    definition.
    """
    policy, excluded = scenario_policy(scenario, n, seed=seed)
    base = ProtocolConfig.create(n)
    f = base.quorum_system.f
    faulty = place_adversaries(n, f, seed=seed, avoid=excluded)
    slots_needed = txns // batch
    # Attacked runs burn slots on view changes and poison blocks, so
    # TetraBFT gets extra chain budget on top of the A4 sizing.
    max_slots = slots_needed + 60 if engine == "tetrabft" else None
    deviation = ATTACKS[attack]
    factory = faulty_factory(
        engine_factory(engine, base, max_slots=max_slots),
        lambda node_id: deviation(node_id, base, seed),
        faulty,
    )
    sim = Simulation(policy)
    sim.metrics.messages.enabled = False
    trackers = SMRTrackers()
    replicas = [
        Replica(i, max_batch=batch, trackers=trackers, engine_factory=factory)
        for i in range(n)
    ]
    sim.add_nodes(list(replicas))
    injected = build_workload("uniform", txns, batch, seed=seed).inject(sim, replicas)
    honest = [i for i in range(n) if i not in faulty and i not in excluded]
    throughput = trackers.throughput
    end = sim.run(
        until=horizon,
        stop_when=lambda: throughput.min_txns_applied(honest) >= injected,
        stop_check_interval=64,
    )
    report = SafetyAuditor(expected_txns=injected).audit([replicas[i] for i in honest])
    return AttackRow(
        attack=attack,
        engine=engine,
        scenario=scenario,
        n=n,
        f=f,
        faulty=faulty,
        txns=injected,
        committed=throughput.min_txns_applied(honest),
        checks=dict(report.checks),
        safe=report.safe,
        live=bool(report.live),
        sim_duration=end,
    )


class CampaignRunner:
    """Sweeps the attack × engine × scenario × n grid, one audit per cell."""

    def __init__(
        self,
        attacks: tuple[str, ...] = ATTACK_NAMES,
        engines: tuple[str, ...] = ENGINE_NAMES,
        scenarios: tuple[str, ...] = ("sync",),
        ns: tuple[int, ...] = (4,),
        txns: int = 30,
        batch: int = 10,
        seed: int = 0,
    ) -> None:
        self.attacks = attacks
        self.engines = engines
        self.scenarios = scenarios
        self.ns = ns
        self.txns = txns
        self.batch = batch
        self.seed = seed

    def cells(self) -> list[tuple[str, str, str, int]]:
        return [
            (attack, engine, scenario, n)
            for attack in self.attacks
            for engine in self.engines
            for scenario in self.scenarios
            for n in self.ns
        ]

    def run(self) -> list[AttackRow]:
        return [
            run_attack_cell(
                attack,
                engine,
                scenario,
                n,
                txns=self.txns,
                batch=self.batch,
                seed=self.seed,
            )
            for attack, engine, scenario, n in self.cells()
        ]


def run_attack_smoke(txns: int = 30, batch: int = 10) -> list[AttackRow]:
    """The tier-1 slice: every attack × engine, sync network, n=4."""
    return CampaignRunner(txns=txns, batch=batch).run()


def run_attack_grid(txns: int = 30, batch: int = 10) -> list[AttackRow]:
    """The full campaign: attack × engine × scenario × n ∈ CAMPAIGN_NS."""
    return CampaignRunner(scenarios=SMR_SCENARIOS, ns=CAMPAIGN_NS, txns=txns, batch=batch).run()


def attack_record(row: AttackRow) -> dict:
    """One AttackRow as a BENCH_attacks.json cell."""
    return {
        "attack": row.attack,
        "engine": row.engine,
        "scenario": row.scenario,
        "n": row.n,
        "f": row.f,
        "faulty": list(row.faulty),
        "txns": row.txns,
        "committed": row.committed,
        "checks": dict(row.checks),
        "safe": row.safe,
        "live": row.live,
        "sim_duration": row.sim_duration,
    }


def write_attack_records(rows: list[AttackRow], key: str, path: Path = BENCH_PATH) -> None:
    """Merge the campaign's verdicts under ``key`` into ``path``."""
    merge_record(path, key, [attack_record(row) for row in rows])


def format_attack_report(rows: list[AttackRow]) -> str:
    return format_table(
        [
            {
                "attack": row.attack,
                "engine": row.engine,
                "scenario": row.scenario,
                "n": row.n,
                "f": row.f,
                "faulty": ",".join(str(i) for i in row.faulty),
                "txns": row.txns,
                "committed": row.committed,
                "verdict": row.verdict,
            }
            for row in rows
        ],
        columns=[
            "attack",
            "engine",
            "scenario",
            "n",
            "f",
            "faulty",
            "txns",
            "committed",
            "verdict",
        ],
        title="A6 — Byzantine campaign over the engine matrix (audited)",
    )


def main() -> None:  # pragma: no cover - CLI entry
    if repro_config().heavy:
        rows = run_attack_grid()
        key = "attack_grid"
    else:
        rows = run_attack_smoke()
        key = "attack_smoke"
        print("(smoke slice: sync scenario, n=4 — REPRO_HEAVY=1 for the full grid)")
    print(format_attack_report(rows))
    write_attack_records(rows, key)
    unsafe = [row for row in rows if not row.safe]
    if unsafe:
        print(f"UNSAFE cells: {[(r.attack, r.engine, r.scenario, r.n) for r in unsafe]}")
    else:
        print(f"all {len(rows)} cells passed the safety audit")


if __name__ == "__main__":  # pragma: no cover
    main()
