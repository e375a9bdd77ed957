"""Integration tests: full single-shot TetraBFT runs over the simulator."""

from __future__ import annotations

import pytest

from repro.core import ProtocolConfig, TetraBFTNode
from repro.sim import (
    PartialSynchronyPolicy,
    PartitionPolicy,
    Simulation,
    SynchronousDelays,
    TargetedDropPolicy,
    UniformRandomDelays,
    silence_nodes,
)
from tests.conftest import assert_agreement, build_simulation


class TestGoodCase:
    def test_four_nodes_decide_in_five_delays(self):
        sim = build_simulation(4)
        sim.run_until_all_decided(until=100)
        assert_agreement(sim, [0, 1, 2, 3])
        assert sim.metrics.latency.max_decision_time() == 5.0

    @pytest.mark.parametrize("n", [4, 7, 10, 13])
    def test_good_case_latency_independent_of_n(self, n):
        sim = build_simulation(n)
        sim.run_until_all_decided(until=100)
        assert_agreement(sim, list(range(n)))
        assert sim.metrics.latency.max_decision_time() == 5.0

    def test_decided_value_is_first_leaders_input(self):
        sim = build_simulation(4)
        sim.run_until_all_decided(until=100)
        value = assert_agreement(sim, [0, 1, 2, 3])
        assert value == "val-0"

    def test_validity_all_same_input(self):
        """Definition 1 Validity: unanimous inputs decide that input."""
        sim = build_simulation(4, values=lambda i: "same")
        sim.run_until_all_decided(until=100)
        assert assert_agreement(sim, [0, 1, 2, 3]) == "same"

    def test_random_delays_still_agree(self):
        for seed in range(10):
            sim = build_simulation(5, policy=UniformRandomDelays(0.1, 1.0, seed=seed))
            sim.run_until_all_decided(until=300)
            assert_agreement(sim, list(range(5)))

    def test_message_complexity_quadratic_count(self):
        """Each node sends O(n) messages in the good case (n broadcasts
        of constant count), so the total is O(n²) messages."""
        counts = {}
        for n in (4, 8, 16):
            sim = build_simulation(n)
            sim.run_until_all_decided(until=100)
            counts[n] = sim.metrics.messages.total_messages_sent
        assert counts[8] / counts[4] == pytest.approx(4.0, rel=0.3)
        assert counts[16] / counts[8] == pytest.approx(4.0, rel=0.3)


class TestCrashFaults:
    def test_crashed_leader_view_change(self):
        sim = build_simulation(
            4, policy=TargetedDropPolicy(SynchronousDelays(1.0), silence_nodes([0]))
        )
        sim.run_until_all_decided(node_ids=[1, 2, 3], until=200)
        value = assert_agreement(sim, [1, 2, 3])
        assert value == "val-1"  # view 1's leader proposes its input
        # timeout (9) + view-change latency (7), Table 1.
        assert max(sim.metrics.latency.decision_times.values()) == 16.0

    def test_two_crashed_leaders_in_a_row(self):
        config = ProtocolConfig.create(7)  # f = 2
        policy = TargetedDropPolicy(SynchronousDelays(1.0), silence_nodes([0, 1]))
        sim = Simulation(policy)
        for i in range(7):
            sim.add_node(TetraBFTNode(i, config, initial_value=f"val-{i}"))
        correct = list(range(2, 7))
        sim.run_until_all_decided(node_ids=correct, until=400)
        assert_agreement(sim, correct)

    def test_crash_of_f_non_leaders_harmless(self):
        sim = build_simulation(
            4, policy=TargetedDropPolicy(SynchronousDelays(1.0), silence_nodes([3]))
        )
        sim.run_until_all_decided(node_ids=[0, 1, 2], until=100)
        assert_agreement(sim, [0, 1, 2])
        assert sim.metrics.latency.max_decision_time() == 5.0


class TestPartialSynchrony:
    @pytest.mark.parametrize("seed", range(12))
    def test_agreement_and_termination_after_gst(self, seed):
        policy = PartialSynchronyPolicy(gst=30.0, delta=1.0, loss_before_gst=0.8, seed=seed)
        sim = build_simulation(4, policy=policy)
        sim.run_until_all_decided(until=2000)
        assert_agreement(sim, [0, 1, 2, 3])

    def test_total_message_loss_before_gst(self):
        policy = PartialSynchronyPolicy(gst=25.0, delta=1.0, loss_before_gst=1.0, seed=0)
        sim = build_simulation(4, policy=policy)
        sim.run_until_all_decided(until=2000)
        assert_agreement(sim, [0, 1, 2, 3])

    def test_partition_heals_and_decides(self):
        base = SynchronousDelays(1.0)
        policy = PartitionPolicy(base, groups=[frozenset({0, 1})], heal_time=40.0)
        sim = build_simulation(4, policy=policy)
        sim.run_until_all_decided(until=2000)
        assert_agreement(sim, [0, 1, 2, 3])
        # Nothing can decide while partitioned (no quorum on either side).
        assert min(sim.metrics.latency.decision_times.values()) >= 40.0

    def test_storage_stays_constant_through_asynchrony(self):
        policy = PartialSynchronyPolicy(gst=50.0, delta=1.0, loss_before_gst=0.7, seed=3)
        sim = build_simulation(4, policy=policy)
        sim.run_until_all_decided(until=2000)
        sizes = {size for per_node in sim.metrics.storage.sizes.values() for size in per_node}
        assert len(sizes) == 1, f"persistent storage varied: {sizes}"


class TestLargerSystems:
    @pytest.mark.parametrize("n", [10, 19])
    def test_asynchrony_then_agreement(self, n):
        policy = PartialSynchronyPolicy(gst=20.0, delta=1.0, loss_before_gst=0.5, seed=n)
        sim = build_simulation(n, policy=policy)
        sim.run_until_all_decided(until=3000)
        assert_agreement(sim, list(range(n)))
