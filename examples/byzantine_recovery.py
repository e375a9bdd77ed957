#!/usr/bin/env python3
"""Surviving Byzantine behaviour: equivocation, forged histories, chaos.

Three scenarios on the n = 4 system (so the single Byzantine node is
exactly the tolerated f = 1):

1. an *equivocating leader* proposes different values to each half of
   the network and votes both ways — within-view quorum intersection
   (Lemma 6) keeps honest nodes from deciding differently;
2. a *history fabricator* answers every view change with forged
   suggest/proof messages — Rules 1–4 only trust claims vouched for by
   a blocking set, so a lone liar can nudge the chosen value but never
   break agreement;
3. a *chaos monkey* sprays random well-formed protocol messages — the
   TLA+ ByzantineHavoc, live.

Each scenario prints the honest nodes' decisions and asserts agreement.

Run:  python examples/byzantine_recovery.py
"""

from __future__ import annotations

from repro import ProtocolConfig, Simulation, TetraBFTNode
from repro.adversary import EquivocateValues, ForgeSuggestProof, Havoc, faulty_node
from repro.sim import UniformRandomDelays


def run_scenario(title: str, make_deviation) -> None:
    print(f"=== {title} ===")
    config = ProtocolConfig.create(4)
    sim = Simulation(UniformRandomDelays(0.2, 1.0, seed=11))
    # Node 0 is an honest TetraBFTNode corrupted by the deviation.
    sim.add_node(faulty_node(0, config, make_deviation(config)))
    for i in range(1, 4):
        sim.add_node(TetraBFTNode(i, config, initial_value=f"honest-{i}"))
    sim.run_until_all_decided(node_ids=[1, 2, 3], until=1500)

    latency = sim.metrics.latency
    for node_id in (1, 2, 3):
        print(
            f"  node {node_id}: decided {latency.decision_values[node_id]!r} "
            f"at t={latency.decision_times[node_id]:.1f}"
        )
    values = {latency.decision_values[i] for i in (1, 2, 3)}
    assert len(values) == 1, f"AGREEMENT BROKEN: {values}"
    print(f"  agreement holds on {values.pop()!r}\n")


if __name__ == "__main__":
    run_scenario(
        "equivocating leader (value A to one half, value B to the other)",
        lambda config: EquivocateValues(0, config, "evil-A", "evil-B"),
    )
    run_scenario(
        "history fabricator (forged suggest/proof on every view change)",
        lambda config: ForgeSuggestProof(0, config, poison_value="poison"),
    )
    run_scenario(
        "chaos monkey (random protocol messages to random nodes)",
        lambda config: Havoc(config, values=["honest-1", "honest-2", "junk"], seed=3),
    )
    print("all Byzantine scenarios survived: agreement held in each.")
