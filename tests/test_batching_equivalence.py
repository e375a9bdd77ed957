"""Message-plane equivalence: batching must be invisible to the protocol.

The aggregated-vote-frame plane (``VoteBatch`` envelopes, proposal
piggybacking, coalesced sim deliveries) is *semantics-free* by
contract: it may change how many physical frames cross the network,
never what any replica concludes.  This suite pins that contract for
every registered consensus engine by running the A5 smoke cell twice —
batching forced on and forced off — under deterministic delay policies
and requiring:

* **byte-identical state digests** per replica,
* **identical finalized chains** (digest-for-digest),
* a **clean SafetyAuditor replay** of both runs,

plus the same comparison through a view-change-heavy crash-recovery
scenario, where batch flush boundaries interact with timers and slot
view changes.  Deterministic policies are essential: batching reduces
how often RNG-consuming delay policies are consulted, so seeded-random
scenarios may diverge (accepted and documented in the sim layer);
under :class:`~repro.sim.SynchronousDelays` and
:class:`~repro.sim.CrashRecoveryPolicy` the runs must agree exactly.
"""

from __future__ import annotations

import pytest

from repro.core import ProtocolConfig
from repro.eval.scaling import scenario_policy
from repro.multishot import MAX_BATCH, BatchingContext, VoteBatch
from repro.smr import ENGINE_NAMES, Replica, Transaction
from repro.smr.engine import engine_factory
from repro.sim import Simulation, SynchronousDelays
from repro.verification import SafetyAuditor

TXNS = 60
BATCH = 10


def _run_cluster(engine: str, batching: bool, scenario: str = "sync", n: int = 4):
    """One full SMR cluster run; returns (replicas, sim)."""
    policy, excluded = scenario_policy(scenario, n)
    max_slots = TXNS // BATCH + 40 if engine == "tetrabft" else None
    factory = engine_factory(
        engine, ProtocolConfig.create(n), max_slots=max_slots, batching=batching
    )
    sim = Simulation(policy)
    sim.metrics.messages.enabled = False
    replicas = [Replica(i, max_batch=BATCH, engine_factory=factory) for i in range(n)]
    sim.add_nodes(list(replicas))
    for k in range(TXNS):
        for replica in replicas:
            replica.submit(Transaction(f"tx-{k}", ("incr", f"key-{k % 5}", 1)))
    del excluded
    # Fixed horizon, no early-stop predicate: stop_when is polled per
    # *event*, and batching legitimately changes the event count, so an
    # early stop would truncate the two runs at different sim times.
    # Equal simulated time is what makes the comparison byte-exact.
    sim.run(until=120)
    return replicas, sim


def _fingerprint(replicas) -> list[tuple[str, list[str]]]:
    return [
        (r.state_digest(), [b.digest for b in r.finalized_chain]) for r in replicas
    ]


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_batching_is_byte_identical_per_engine(engine):
    """A5 smoke cell, batching on vs off: same digests, same chains,
    auditor-clean both ways — for every registered engine."""
    batched, sim_on = _run_cluster(engine, batching=True)
    unbatched, sim_off = _run_cluster(engine, batching=False)
    assert _fingerprint(batched) == _fingerprint(unbatched), engine
    for replicas in (batched, unbatched):
        report = SafetyAuditor(expected_txns=TXNS).audit(replicas)
        assert report.safe and report.live, (engine, report.violations)
    # The plane really was on/off.  Unbatched: one frame per message.
    # Batched: never more frames than messages, and strictly fewer for
    # TetraBFT, whose leader piggybacks its proposal on its own vote
    # every slot (the chained baselines emit one broadcast per
    # activation in this workload, so they have nothing to merge).
    assert sim_off.network.frames_sent == sim_off.network.messages_sent
    assert sim_on.network.frames_sent <= sim_on.network.messages_sent, engine
    if engine == "tetrabft":
        assert sim_on.network.frames_sent < sim_on.network.messages_sent


@pytest.mark.parametrize("engine", ("tetrabft", "pbft"))
def test_batching_survives_view_changes_identically(engine):
    """Crash-recovery scenario (rolling outages force slot view changes
    and timer-driven flushes): batched and unbatched runs still agree."""
    batched, _ = _run_cluster(engine, batching=True, scenario="crash-recovery")
    unbatched, _ = _run_cluster(engine, batching=False, scenario="crash-recovery")
    assert _fingerprint(batched) == _fingerprint(unbatched), engine
    for replicas in (batched, unbatched):
        # No liveness expectation: the outage node may lag the others.
        report = SafetyAuditor().audit(replicas)
        assert report.safe, (engine, report.violations)


def test_env_escape_hatch_disables_batching(monkeypatch):
    """REPRO_NO_BATCH=1 is the documented kill switch: engines built
    with batching=None consult it at start() and run unbatched."""
    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    replicas, sim = _run_cluster("tetrabft", batching=None)
    assert sim.network.frames_sent == sim.network.messages_sent
    monkeypatch.delenv("REPRO_NO_BATCH")
    baseline, _ = _run_cluster("tetrabft", batching=True)
    assert _fingerprint(replicas) == _fingerprint(baseline)


def test_flush_chunks_at_max_batch(fake_ctx):
    """One activation's broadcasts past the cap leave as a full
    envelope plus the remainder — here a bare message, since a chunk
    of one is never enveloped."""
    ctx = BatchingContext(fake_ctx)
    for k in range(MAX_BATCH + 1):
        ctx.broadcast(("m", k))
    ctx.flush()
    full, rest = fake_ctx.broadcasts
    assert isinstance(full, VoteBatch) and len(full.messages) == MAX_BATCH == 32
    assert rest == ("m", MAX_BATCH)
