"""Fault-injection tests: safety and liveness under Byzantine nodes.

Each scenario corrupts up to ``f`` nodes with a deviation from
:mod:`repro.adversary` (a :class:`FaultyEngine` over an honest
:class:`TetraBFTNode`) and asserts Definition 1's properties for the
remaining honest nodes, over several network schedules.
"""

from __future__ import annotations

import pytest

from repro.adversary import (
    EquivocateValues,
    ForgeSuggestProof,
    Havoc,
    ScheduledCrash,
    Silence,
    Withhold,
    faulty_node,
)
from repro.core import Phase, ProtocolConfig, TetraBFTNode
from repro.sim import Simulation, SynchronousDelays, UniformRandomDelays
from tests.conftest import assert_agreement

CFG4 = ProtocolConfig.create(4)


def run_with_byzantine(deviation_factory, seed: int, n: int = 4, horizon: float = 1500.0):
    """Node 0 runs ``deviation_factory(config)``; returns the run and
    the honest ids."""
    config = ProtocolConfig.create(n)
    policy = UniformRandomDelays(0.2, 1.0, seed=seed)
    sim = Simulation(policy)
    sim.add_node(faulty_node(0, config, deviation_factory(config)))
    for i in range(1, n):
        sim.add_node(TetraBFTNode(i, config, initial_value=f"val-{i}"))
    honest = list(range(1, n))
    sim.run_until_all_decided(node_ids=honest, until=horizon)
    return sim, honest


class TestSilent:
    @pytest.mark.parametrize("seed", range(5))
    def test_agreement_and_termination(self, seed):
        sim, honest = run_with_byzantine(lambda c: Silence(), seed)
        assert_agreement(sim, honest)


class TestCrash:
    def test_mid_view_crash(self):
        """The leader crashes mid-view 0, after proposing but before
        the pipeline completes under slow links."""
        config = CFG4
        policy = UniformRandomDelays(0.9, 1.0, seed=1)
        sim = Simulation(policy)
        sim.add_node(faulty_node(0, config, ScheduledCrash(crash_at=2.5), "val-0"))
        for i in range(1, 4):
            sim.add_node(TetraBFTNode(i, config, initial_value=f"val-{i}"))
        sim.run_until_all_decided(node_ids=[1, 2, 3], until=1000)
        assert_agreement(sim, [1, 2, 3])

    def test_a_crashed_node_sends_nothing_afterwards(self):
        """Crashed means silent, not only deaf: the wrapped node's own
        timers keep firing after the crash, and none of what they
        broadcast may reach the network."""
        config = CFG4
        sim = Simulation(UniformRandomDelays(0.9, 1.0, seed=1))
        sim.add_node(faulty_node(0, config, ScheduledCrash(crash_at=2.5), "val-0"))
        for i in range(1, 4):
            sim.add_node(TetraBFTNode(i, config, initial_value=f"val-{i}"))
        sim.run(until=2.5)
        sent_at_crash = sim.metrics.messages.sent_count[0]
        assert sent_at_crash > 0, "node 0 must take part before its crash"
        sim.run(until=200.0)
        assert sim.metrics.messages.sent_count[0] == sent_at_crash

    @pytest.mark.parametrize("crash_time", [0.5, 4.0, 9.5, 12.0])
    def test_crash_at_various_times(self, crash_time):
        config = CFG4
        sim = Simulation(SynchronousDelays(1.0))
        sim.add_node(faulty_node(0, config, ScheduledCrash(crash_at=crash_time), "val-0"))
        for i in range(1, 4):
            sim.add_node(TetraBFTNode(i, config, initial_value=f"val-{i}"))
        sim.run_until_all_decided(node_ids=[1, 2, 3], until=1000)
        assert_agreement(sim, [1, 2, 3])


class TestEquivocation:
    @pytest.mark.parametrize("seed", range(8))
    def test_equivocating_leader_cannot_split_decisions(self, seed):
        sim, honest = run_with_byzantine(
            lambda c: EquivocateValues(0, c, "evil-A", "evil-B"), seed
        )
        value = assert_agreement(sim, honest)
        # Whatever was decided, it is a single value (it may well be
        # one of the equivocated ones — that is allowed).
        assert value is not None

    def test_equivocation_in_seven_node_system(self):
        config = ProtocolConfig.create(7)
        sim = Simulation(UniformRandomDelays(0.3, 1.0, seed=42))
        sim.add_node(faulty_node(0, config, EquivocateValues(0, config, "eA", "eB")))
        sim.add_node(faulty_node(1, config, EquivocateValues(1, config, "eC", "eD")))
        for i in range(2, 7):
            sim.add_node(TetraBFTNode(i, config, initial_value=f"val-{i}"))
        honest = list(range(2, 7))
        sim.run_until_all_decided(node_ids=honest, until=2000)
        assert_agreement(sim, honest)


class TestFabricatedHistories:
    @pytest.mark.parametrize("seed", range(8))
    def test_forged_suggest_proof_never_breaks_agreement(self, seed):
        """A lone fabricator may well get its value *adopted* — when no
        honest history exists, any value is safe and Rule 1 lets the
        leader pick up the forged suggestion.  What it must never do is
        cause disagreement; that is the property asserted here (the
        can't-overturn-real-history cases are pinned in test_rules)."""
        sim, honest = run_with_byzantine(
            lambda c: ForgeSuggestProof(0, c, poison_value="poison"), seed
        )
        assert_agreement(sim, honest)


class TestWithholding:
    @pytest.mark.parametrize(
        "phases",
        [
            (Phase.VOTE1,),
            (Phase.VOTE2, Phase.VOTE3),
            (Phase.VOTE3, Phase.VOTE4),
            (Phase.VOTE1, Phase.VOTE2, Phase.VOTE3, Phase.VOTE4),
        ],
    )
    def test_withholder_cannot_block_progress(self, phases):
        config = CFG4
        sim = Simulation(SynchronousDelays(1.0))
        sim.add_node(faulty_node(0, config, Withhold(phases=phases), "val-0"))
        for i in range(1, 4):
            sim.add_node(TetraBFTNode(i, config, initial_value=f"val-{i}"))
        sim.run_until_all_decided(node_ids=[1, 2, 3], until=500)
        assert_agreement(sim, [1, 2, 3])


class TestChaos:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_byzantine_havoc(self, seed):
        sim, honest = run_with_byzantine(
            lambda c: Havoc(c, values=["val-1", "val-2", "junk"], seed=seed, burst=8),
            seed,
        )
        assert_agreement(sim, honest)

    def test_two_monkeys_in_seven_node_system(self):
        config = ProtocolConfig.create(7)
        sim = Simulation(UniformRandomDelays(0.2, 1.0, seed=5))
        sim.add_node(faulty_node(0, config, Havoc(config, values=["x", "y"], seed=1)))
        sim.add_node(faulty_node(1, config, Havoc(config, values=["y", "z"], seed=2)))
        for i in range(2, 7):
            sim.add_node(TetraBFTNode(i, config, initial_value=f"val-{i}"))
        honest = list(range(2, 7))
        sim.run_until_all_decided(node_ids=honest, until=2000)
        assert_agreement(sim, honest)
