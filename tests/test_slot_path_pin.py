"""The multi-shot slot path at n=16, pinned.

The ``sim-chain-n16`` shape (16 replicas over the TetraBFT engine,
batch 10, a uniform stream of 10 transactions per Δ, synchronous
delays) run for about 200 slots, built from ``src/`` alone.  Every skip
on the engine's vote and slot paths claims to be exact: it may save
work, never change what a node sends, traces or finalizes.  So this
run's message and frame counts, every replica's finalized chain and
state digest, and a hash of the whole trace are pinned to the values
the code read before any skip landed.

The run with the trace on takes the network's general path and the run
with it off the synchronous fast path; both must agree on everything
but the trace.  Nothing here hangs on hash order: CI reruns this file
under two ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import ProtocolConfig
from repro.sim import Simulation, SynchronousDelays
from repro.smr import Replica
from repro.smr.engine import engine_factory
from repro.verification import SafetyAuditor
from repro.workloads import UniformWorkload

N = 16
BATCH = 10
SLOTS = 200
SEED = 711
#: Virtual time the run stops at, the last transaction's slot plus
#: the drain ``sim-chain-n16`` allows (slot s finalizes at about s + 4).
HORIZON = SLOTS + 8

# Read on the code before the slot-path skips.  The two hashes were
# re-read when a block's digest and a store's state digest became
# SHA-256 over the codec's bytes: every digest in the chains and the
# trace is renamed, and with each old name mapped to its new one (210
# names, matched by creation order) the old trace and chains are the new
# ones line for line.  The counts did not move.
MESSAGES_SENT = 53_264
FRAMES_SENT = 49_936
FINALIZED_HEIGHTS = [204] * N
CHAINS_SHA256 = "1c7508c2b1029ea8ab5873a4c58135b705601c06395894cbf76b528ac0520d8a"
TRACE_EVENTS = 112_881
TRACE_SHA256 = "a22253ea739345bf5423af5a617bbb794e9ed09f74c6d459b532e7ad90ee3ff5"


def _run(trace_enabled: bool):
    factory = engine_factory("tetrabft", ProtocolConfig.create(N), max_slots=SLOTS + 40)
    sim = Simulation(SynchronousDelays(1.0), trace_enabled=trace_enabled)
    sim.metrics.messages.enabled = False
    replicas = [Replica(i, max_batch=BATCH, engine_factory=factory) for i in range(N)]
    sim.add_nodes(list(replicas))
    UniformWorkload(count=SLOTS * BATCH, rate=float(BATCH), seed=SEED).inject(sim, replicas)
    sim.run(until=float(HORIZON), max_events=None)
    return sim, replicas


def _chains_sha256(replicas) -> str:
    digest = hashlib.sha256()
    for replica in replicas:
        line = " ".join([replica.state_digest()] + [b.digest for b in replica.finalized_chain])
        digest.update(f"{replica.node_id} {line}\n".encode())
    return digest.hexdigest()


def _trace_sha256(sim) -> str:
    digest = hashlib.sha256()
    for event in sim.trace:
        digest.update(repr((event.time, event.node, event.kind.value, event.detail)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def untraced():
    return _run(trace_enabled=False)


def test_counts_chains_and_digests_are_pinned(untraced):
    sim, replicas = untraced
    assert (sim.network.messages_sent, sim.network.frames_sent) == (MESSAGES_SENT, FRAMES_SENT)
    assert [len(r.finalized_chain) for r in replicas] == FINALIZED_HEIGHTS
    assert _chains_sha256(replicas) == CHAINS_SHA256
    report = SafetyAuditor().audit(replicas)
    assert report.safe, report.violations


def test_trace_is_pinned(untraced):
    plain, plain_replicas = untraced
    sim, replicas = _run(trace_enabled=True)
    assert len(sim.trace) == TRACE_EVENTS
    assert _trace_sha256(sim) == TRACE_SHA256
    # The traced run takes the network's general path: same outcome.
    assert (sim.network.messages_sent, sim.network.frames_sent) == (
        plain.network.messages_sent,
        plain.network.frames_sent,
    )
    assert _chains_sha256(replicas) == _chains_sha256(plain_replicas)
