"""Unit tests for the engine-layer Byzantine wrapper.

Covers the contract the campaign subsystem rests on: the
:class:`FaultyEngine` filters exactly the traffic its deviation says
(silence drops everything, withholding drops only votes, a scheduled
crash is dark exactly inside its window), equivocation mints consistent
conflicting twins, the factory combinator wraps only the f-bounded
faulty set, and — the property CI pins — a fixed (attack, seed) pair
reproduces byte-identical traces and state digests run over run.
"""

from __future__ import annotations

import pytest

from repro.adversary.faulty_engine import (
    ATTACK_NAMES,
    ATTACKS,
    Deviation,
    Equivocate,
    FaultyEngine,
    ScheduledCrash,
    Silence,
    faulty_factory,
)
from repro.baselines.chained import CatchUp
from repro.core import ProtocolConfig
from repro.eval.attacks import run_attack_cell
from repro.multishot.block import GENESIS_DIGEST, Block, BlockStore
from repro.multishot.messages import MSProposal, MSViewChange, MSVote
from repro.multishot.node import MultiShotConfig
from repro.sim import Simulation, SynchronousDelays
from repro.sim.trace import TraceKind
from repro.smr import Replica, Transaction, engine_factory
from repro.smr.engine import multishot_engine
from repro.verification import SafetyAuditor


def run_attacked_cluster(
    attack,
    engine: str = "tetrabft",
    n: int = 4,
    faulty_id: int = 1,
    txns: int = 20,
    batch: int = 10,
    seed: int = 0,
    trace: bool = False,
):
    """One attacked SMR run; returns (replicas, sim, honest ids).

    ``attack`` names an :data:`ATTACKS` family or is itself a
    ``(node_id, config, seed) -> Deviation`` builder."""
    base = ProtocolConfig.create(n)
    max_slots = txns // batch + 40 if engine == "tetrabft" else None
    deviation = ATTACKS[attack] if isinstance(attack, str) else attack
    factory = faulty_factory(
        engine_factory(engine, base, max_slots=max_slots),
        lambda node_id: deviation(node_id, base, seed),
        [faulty_id],
    )
    sim = Simulation(SynchronousDelays(1.0), trace_enabled=trace)
    replicas = [Replica(i, max_batch=batch, engine_factory=factory) for i in range(n)]
    sim.add_nodes(list(replicas))
    for k in range(txns):
        for replica in replicas:
            replica.submit(Transaction(f"tx-{k}", ("set", f"key-{k % 5}", k)))
    honest = [i for i in range(n) if i != faulty_id]

    def all_done() -> bool:
        return all(replicas[i].store.applied_count >= txns for i in honest)

    sim.run(until=150.0, stop_when=all_done, stop_check_interval=16)
    return replicas, sim, honest


def sends_from(sim: Simulation, node: int) -> list:
    return sim.trace.events(kind=TraceKind.SEND, node=node)


def message_names(events) -> set[str]:
    return {dict(event.detail)["msg"] for event in events}


# -- message filtering ---------------------------------------------------------


def test_silence_sends_nothing_and_cluster_stays_live():
    replicas, sim, honest = run_attacked_cluster("silence", trace=True)
    assert sends_from(sim, 1) == []
    for i in honest:
        assert replicas[i].store.applied_count == 20


def test_withhold_drops_votes_but_nothing_else():
    replicas, sim, honest = run_attacked_cluster("withhold", trace=True)
    names = message_names(sends_from(sim, 1))
    assert "MSVote" not in names
    assert names  # proposals / view changes still flow: not a crash
    for i in honest:
        assert replicas[i].store.applied_count == 20


def test_scheduled_crash_is_dark_exactly_inside_its_window():
    base = ProtocolConfig.create(4)
    config = MultiShotConfig(base=base, max_slots=30)
    inner = multishot_engine(config)
    factory = faulty_factory(
        inner, lambda node_id: ScheduledCrash(crash_at=5.0, recover_at=40.0), [2]
    )
    sim = Simulation(SynchronousDelays(1.0), trace_enabled=True)
    replicas = [Replica(i, max_batch=5, engine_factory=factory) for i in range(4)]
    sim.add_nodes(list(replicas))
    for k in range(20):
        for replica in replicas:
            replica.submit(Transaction(f"tx-{k}", ("incr", "k", 1)))
    sim.run(until=60.0)
    times = [event.time for event in sends_from(sim, 2)]
    assert times, "node 2 must participate before the crash"
    assert all(t < 5.0 or t >= 40.0 for t in times)
    assert any(t < 5.0 for t in times)


def test_faulty_factory_wraps_only_the_faulty_set():
    base = ProtocolConfig.create(4)
    factory = faulty_factory(engine_factory("tetrabft", base), lambda node_id: Silence(), [0, 3])
    engines = [factory(i, lambda s, p: None, lambda b: None) for i in range(4)]
    assert isinstance(engines[0], FaultyEngine)
    assert isinstance(engines[3], FaultyEngine)
    assert not isinstance(engines[1], FaultyEngine)
    assert not isinstance(engines[2], FaultyEngine)


def test_attack_registry_covers_every_family():
    assert set(ATTACK_NAMES) == {
        "silence", "crash", "equivocate", "withhold", "fabricate", "chaos",
    }
    base = ProtocolConfig.create(4)
    for name, build in ATTACKS.items():
        deviation = build(1, base, 7)
        assert hasattr(deviation, "outbound"), name


# -- equivocation --------------------------------------------------------------


class _StubEngine:
    """Just enough FaultyEngine surface for outbound-hook unit tests."""

    def __init__(self) -> None:
        self.store = BlockStore()


def test_equivocate_splits_proposals_into_consistent_halves():
    config = ProtocolConfig.create(4)
    deviation = Equivocate(1, config)
    deviation.engine = _StubEngine()
    block = Block.create(1, "genesis", ("payload",))
    deliveries = deviation.outbound(None, MSProposal(1, 0, block))
    assert len(deliveries) == 4
    by_node = {dst: msg for dst, msg in deliveries}
    assert set(by_node) == {0, 1, 2, 3}
    low = {by_node[0].block.digest, by_node[1].block.digest}
    high = {by_node[2].block.digest, by_node[3].block.digest}
    assert low == {block.digest}
    assert len(high) == 1 and high != low
    twin = by_node[2].block
    assert twin.slot == block.slot and twin.parent == block.parent

    # Votes for either lineage translate through the twin cache, so
    # each half keeps seeing a consistent world.
    vote_deliveries = deviation.outbound(None, MSVote(1, 0, block.digest))
    votes = {dst: msg.digest for dst, msg in vote_deliveries}
    assert votes[0] == block.digest and votes[3] == twin.digest


def test_equivocate_passes_through_unrelated_traffic():
    config = ProtocolConfig.create(4)
    deviation = Equivocate(1, config)
    deviation.engine = _StubEngine()
    assert deviation.outbound(None, MSViewChange(2, 1)) == [(None, MSViewChange(2, 1))]
    # Directed sends are never split (halving targets a broadcast).
    block = Block.create(1, "genesis", ())
    assert deviation.outbound(2, MSProposal(1, 0, block)) == [(2, MSProposal(1, 0, block))]


def test_equivocating_leader_cannot_fork_the_cluster():
    replicas, sim, honest = run_attacked_cluster("equivocate")
    report = SafetyAuditor(expected_txns=20).audit([replicas[i] for i in honest])
    assert report.safe, report.violations
    assert report.live, report.violations
    digests = {replicas[i].state_digest() for i in honest}
    assert len(digests) == 1


def test_an_equivocating_leader_and_a_crash_recovery_do_not_stall_the_cluster():
    """The heavy A6 grid's tetrabft × equivocate × crash-recovery × n=4
    cell.  A replica can hear a view-change quorum for a slot before it
    starts that slot; it joins that view at once instead of sitting in
    view 0 while its peers have moved on, so the honest replicas
    execute every write."""
    row = run_attack_cell("equivocate", "tetrabft", "crash-recovery", 4)
    assert row.safe, row.checks
    assert row.live
    assert row.committed == row.txns == 30


# -- determinism ---------------------------------------------------------------


@pytest.mark.parametrize("attack", ATTACK_NAMES)
def test_same_seed_gives_byte_identical_traces(attack):
    """The property the campaign's reproducibility rests on: a fixed
    (attack, seed) pair replays the exact same run — every send, drop,
    timer and finalization — and lands in the same state."""
    first_replicas, first_sim, honest = run_attacked_cluster(attack, seed=3, trace=True)
    second_replicas, second_sim, _ = run_attacked_cluster(attack, seed=3, trace=True)
    assert list(first_sim.trace) == list(second_sim.trace)
    assert [r.state_digest() for r in first_replicas] == [r.state_digest() for r in second_replicas]


def test_different_chaos_seeds_diverge():
    """The seed actually feeds the randomness (no vacuous determinism)."""
    _, first_sim, _ = run_attacked_cluster("chaos", seed=1, trace=True)
    _, second_sim, _ = run_attacked_cluster("chaos", seed=2, trace=True)
    assert list(first_sim.trace) != list(second_sim.trace)


def test_chained_engine_under_equivocation_stays_safe():
    """The wrapper is engine-generic: a chained baseline under the same
    equivocation keeps agreement (catch-up included)."""
    replicas, sim, honest = run_attacked_cluster("equivocate", engine="pbft")
    report = SafetyAuditor(expected_txns=20).audit([replicas[i] for i in honest])
    assert report.safe, report.violations
    assert report.live, report.violations


class ForgedCatchUp(Deviation):
    """Runs honestly, but at start hands replica ``victim`` a catch-up
    reply whose one block is a forgery for slot 1 on genesis."""

    def __init__(self, victim: int) -> None:
        self.victim = victim
        self.forged = Block.create(1, GENESIS_DIGEST, ("forged",))

    def on_start(self) -> None:
        self.engine._emit([(self.victim, CatchUp(1, (self.forged,)))])


@pytest.mark.parametrize("engine", ["pbft", "ithotstuff", "li"])
def test_a_lone_forged_catch_up_is_never_adopted(engine):
    """A chained engine adopts catch-up blocks only when f+1 distinct
    peers' replies carry them; one Byzantine peer's reply is not
    enough, so the victim finalizes no forged block and cannot fork."""
    deviation = ForgedCatchUp(victim=1)
    replicas, _, honest = run_attacked_cluster(
        lambda node_id, config, seed: deviation, engine=engine, faulty_id=0
    )
    for i in honest:
        assert deviation.forged.digest not in {b.digest for b in replicas[i].finalized_chain}
    report = SafetyAuditor(expected_txns=20).audit([replicas[i] for i in honest])
    assert report.safe, report.violations
    assert report.live, report.violations
