"""Ablation — the two liveness-hardening mechanisms in the node.

:mod:`repro.core.node` documents two engineering choices
layered on the paper's §3.2 pseudocode:

* the **cross-view vote-4 ledger** (decision dissemination): count
  vote-4 messages per (view, value) across views, so a node that fell
  behind — e.g. starved by an equivocating leader while others decided
  — can still adopt the decision when retransmitted vote-4s reach it;
* **timer-driven retransmission**: re-broadcast the current
  view-change (and, once decided, the decisive vote-4) on every timer
  expiry, so material lost to pre-GST asynchrony is eventually
  delivered.

This ablation runs the adversarial scenarios those mechanisms exist
for, with each mechanism switched off, and reports which honest nodes
fail to decide within a generous horizon.

Measured finding (asserted by ``benchmarks/test_hardening_ablation.py``):
**retransmission is load-bearing** — under heavy pre-GST loss,
liveness fails without it — while the **vote-4 ledger is redundant
given full decided-node participation**: a starved node is always
rescued by the next view change re-deciding the same value (Lemma 8),
so the ledger only shaves latency in narrow partition-heal windows.  An honest negative
result; the ledger stays on by default as a cheap fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adversary import EquivocateValues, faulty_node
from repro.core import ProtocolConfig, TetraBFTNode
from repro.sim import (
    PartialSynchronyPolicy,
    Simulation,
    UniformRandomDelays,
)


@dataclass
class AblationOutcome:
    mechanism: str
    scenario: str
    enabled_all_decide: bool
    disabled_all_decide: bool

    @property
    def mechanism_is_load_bearing(self) -> bool:
        return self.enabled_all_decide and not self.disabled_all_decide


def _run_equivocation(vote4_ledger: bool, seed: int = 0, horizon: float = 800.0) -> bool:
    """Equivocating leader scenario; True iff all honest nodes decide.

    With synchronous delivery and an equivocator who pushes one value
    to each half, part of the network can decide in view 0 while the
    rest starves; the starved nodes recover either via the vote-4
    ledger (adopting retransmitted decisions from an old view) or not
    at all if both hardenings are off — here retransmission stays ON
    so the ledger's contribution is isolated.
    """
    config = ProtocolConfig.create(4)
    sim = Simulation(UniformRandomDelays(0.2, 1.0, seed=seed))
    sim.add_node(faulty_node(0, config, EquivocateValues(0, config, "evil-A", "evil-B")))
    for i in range(1, 4):
        sim.add_node(TetraBFTNode(i, config, initial_value=f"val-{i}", vote4_ledger=vote4_ledger))
    sim.run_until_all_decided(node_ids=[1, 2, 3], until=horizon)
    return sim.metrics.latency.all_decided([1, 2, 3])


def _run_lossy_start(retransmission: bool, seed: int = 0, horizon: float = 1500.0) -> bool:
    """Heavy pre-GST loss; True iff all nodes decide after GST.

    Before GST most messages are dropped; without retransmission a
    node's only view-change for a view can be lost forever and view
    synchronization never completes for some schedules.
    """
    config = ProtocolConfig.create(4)
    policy = PartialSynchronyPolicy(gst=40.0, delta=1.0, loss_before_gst=0.9, seed=seed)
    sim = Simulation(policy)
    for i in range(4):
        sim.add_node(
            TetraBFTNode(
                i, config, initial_value=f"val-{i}", retransmission=retransmission
            )
        )
    sim.run_until_all_decided(until=horizon)
    return sim.metrics.latency.all_decided([0, 1, 2, 3])


def run_hardening_ablation(seeds: tuple[int, ...] = (0, 1, 2, 3, 4, 5)) -> list[AblationOutcome]:
    """Each mechanism, with/without, across seeds (any seed failing
    with the mechanism off counts as a stall)."""
    ledger_on = all(_run_equivocation(True, seed) for seed in seeds)
    ledger_off = all(_run_equivocation(False, seed) for seed in seeds)
    retrans_on = all(_run_lossy_start(True, seed) for seed in seeds)
    retrans_off = all(_run_lossy_start(False, seed) for seed in seeds)
    return [
        AblationOutcome(
            mechanism="vote4_ledger",
            scenario="equivocating leader starves a minority",
            enabled_all_decide=ledger_on,
            disabled_all_decide=ledger_off,
        ),
        AblationOutcome(
            mechanism="retransmission",
            scenario="90% message loss before GST",
            enabled_all_decide=retrans_on,
            disabled_all_decide=retrans_off,
        ),
    ]


def main() -> None:  # pragma: no cover - CLI entry
    print("Hardening ablation (liveness mechanisms from repro.core.node)")
    for outcome in run_hardening_ablation():
        print(
            f"  {outcome.mechanism:15s} [{outcome.scenario}]\n"
            f"      enabled → all decide: {outcome.enabled_all_decide}   "
            f"disabled → all decide: {outcome.disabled_all_decide}   "
            f"load-bearing: {outcome.mechanism_is_load_bearing}"
        )


if __name__ == "__main__":  # pragma: no cover
    main()
