"""Tests for the run-level safety auditor.

The crucial half of these are *negative controls*: hand-built evidence
with a deliberately forked chain, a broken hash link, a double-applied
transaction, a replay divergence — each must be flagged.  An auditor
only proves anything if it can fail; without these the campaign's
"zero violations" verdicts could be vacuous.
"""

from __future__ import annotations

from repro.core import ProtocolConfig
from repro.multishot.block import GENESIS_DIGEST, Block
from repro.multishot.node import MultiShotConfig
from repro.sim import Simulation, SynchronousDelays
from repro.smr import KVStore, Replica, Transaction
from repro.verification import (
    CHAIN_INVARIANTS,
    AuditReport,
    ReplicaEvidence,
    SafetyAuditor,
    chain_links,
    chains_agree,
    chains_no_fork,
    executed_once,
    replay_chain,
)
from repro.verification.audit import SAFETY_CHECKS


def _chain(*payloads: object) -> tuple[Block, ...]:
    """A well-formed chain, one block per payload, from genesis."""
    blocks: list[Block] = []
    parent = GENESIS_DIGEST
    for slot, payload in enumerate(payloads, start=1):
        block = Block.create(slot, parent, payload)
        blocks.append(block)
        parent = block.digest
    return tuple(blocks)


def _evidence(node_id: int, chain: tuple[Block, ...]) -> ReplicaEvidence:
    """Evidence exactly as an honest replica would have produced it."""
    store = replay_chain(chain)
    return ReplicaEvidence(
        node_id=node_id,
        chain=chain,
        state_digest=store.state_digest(),
        applied_txids=tuple(store.applied_txids),
    )


def _txn_payload(*ids: str) -> tuple[Transaction, ...]:
    return tuple(Transaction(txid, ("incr", "k", 1)) for txid in ids)


# -- positive path -------------------------------------------------------------


def test_honest_cluster_audit_passes_end_to_end():
    config = MultiShotConfig(base=ProtocolConfig.create(4), max_slots=20)
    sim = Simulation(SynchronousDelays(1.0))
    replicas = [Replica(i, config=config, max_batch=10) for i in range(4)]
    sim.add_nodes(list(replicas))
    for k in range(30):
        for replica in replicas:
            replica.submit(Transaction(f"tx-{k}", ("set", f"key-{k % 3}", k)))
    sim.run(until=40.0)
    report = SafetyAuditor(expected_txns=30).audit(replicas)
    assert report.safe and report.live and report.ok
    assert report.violations == []
    assert set(report.checks) == set(SAFETY_CHECKS)


def test_block_by_block_apply_matches_replay_chain():
    """Block-by-block ``KVStore.apply_block``, as the gateway follows the
    chain, is the replay the auditor runs: same digest at every prefix,
    duplicates (first execution wins), empty and non-tuple payloads
    included."""
    chain = _chain(
        _txn_payload("a", "b"),
        (),
        _txn_payload("b", "c"),  # b again: skipped
        "synthetic",
        (Transaction("d", ("set", "x", 5)), "not a txn", Transaction("a", ("del", "x"))),
    )
    store = KVStore()
    executed = []
    for height, block in enumerate(chain, start=1):
        executed += store.apply_block(block)
        assert store.state_digest() == replay_chain(chain[:height]).state_digest()
    assert store.applied_txids == executed == ["a", "b", "c", "d"]


def test_consistent_evidence_passes():
    chain = _chain(_txn_payload("a", "b"), _txn_payload("c"))
    report = SafetyAuditor().audit_evidence(
        [_evidence(0, chain), _evidence(1, chain), _evidence(2, chain[:1])]
    )
    assert report.safe
    assert report.live is None  # liveness not assessed without a target
    assert report.ok


# -- negative controls ---------------------------------------------------------


def test_auditor_detects_forked_chain():
    """The negative control: two honest replicas on conflicting slot-2
    blocks must trip agreement AND no-fork — the auditor cannot be
    passing everything vacuously."""
    shared = _chain(_txn_payload("a"))
    left = shared + (Block.create(2, shared[-1].digest, _txn_payload("b")),)
    right = shared + (Block.create(2, shared[-1].digest, _txn_payload("c")),)
    report = SafetyAuditor().audit_evidence([_evidence(0, left), _evidence(1, right)])
    assert not report.checks["chains_agree"]
    assert not report.checks["chains_no_fork"]
    assert not report.safe and not report.ok
    assert any("conflicting" in v for v in report.violations)


def test_auditor_detects_broken_hash_link():
    good = _chain(_txn_payload("a"), _txn_payload("b"))
    # Splice a block whose parent pointer skips its predecessor.
    broken = (good[0], Block.create(2, "not-the-parent", _txn_payload("b")))
    evidence = ReplicaEvidence(
        node_id=0,
        chain=broken,
        state_digest=replay_chain(broken).state_digest(),
        applied_txids=("a", "b"),
    )
    report = SafetyAuditor().audit_evidence([evidence])
    assert not report.checks["chain_links"]
    assert not report.safe


def test_auditor_detects_double_execution():
    chain = _chain(_txn_payload("a"))
    evidence = ReplicaEvidence(
        node_id=0,
        chain=chain,
        state_digest=replay_chain(chain).state_digest(),
        applied_txids=("a", "a"),
    )
    report = SafetyAuditor().audit_evidence([evidence])
    assert not report.checks["executed_once"]
    assert not report.safe


def test_auditor_detects_replay_divergence():
    """A replica whose live state does not match its own ledger."""
    chain = _chain(_txn_payload("a"))
    evidence = ReplicaEvidence(
        node_id=0,
        chain=chain,
        state_digest="deadbeefdeadbeef",
        applied_txids=("a",),
    )
    report = SafetyAuditor().audit_evidence([evidence])
    assert not report.checks["replay_matches"]
    assert not report.safe


def test_auditor_detects_state_split_at_same_tip():
    chain = _chain(_txn_payload("a"))
    honest = _evidence(0, chain)
    liar = ReplicaEvidence(
        node_id=1,
        chain=chain,
        state_digest="0123456789abcdef",
        applied_txids=("a",),
    )
    report = SafetyAuditor().audit_evidence([honest, liar])
    assert not report.checks["state_agreement"]


def test_auditor_judges_liveness_against_expected_count():
    chain = _chain(_txn_payload("a", "b"))
    evidence = _evidence(0, chain)
    lagging = SafetyAuditor(expected_txns=5).audit_evidence([evidence])
    assert lagging.safe and lagging.live is False and not lagging.ok
    done = SafetyAuditor(expected_txns=2).audit_evidence([evidence])
    assert done.ok and done.live is True


# -- the invariant registry ----------------------------------------------------


def test_chain_invariant_predicates_directly():
    assert chain_links([(1, GENESIS_DIGEST, "d1"), (2, "d1", "d2")])
    assert not chain_links([(1, GENESIS_DIGEST, "d1"), (2, "dX", "d2")])
    assert not chain_links([(2, GENESIS_DIGEST, "d1"), (1, "d1", "d2")])
    assert chains_agree([["a", "b"], ["a", "b", "c"], ["a"]])
    assert not chains_agree([["a", "b"], ["a", "x"]])
    assert chains_no_fork({1: {"a"}, 2: {"b"}})
    assert not chains_no_fork({1: {"a"}, 2: {"b", "c"}})
    assert executed_once(["a", "b", "c"]) and not executed_once(["a", "a"])
    assert set(CHAIN_INVARIANTS) == {
        "chain_links", "chains_agree", "chains_no_fork", "executed_once",
    }


def test_report_shape_is_machine_readable():
    report = AuditReport(checks={name: True for name in SAFETY_CHECKS})
    assert report.safe and report.ok and report.live is None
