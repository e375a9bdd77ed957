"""Post-hoc safety auditing of end-to-end SMR runs.

The explicit-state checker verifies the protocol *model*; nothing so
far audited an actual end-to-end run.  Accountable consensus layers
(e.g. *pod* in PAPERS.md) treat post-hoc auditability as a first-class
output of the system: after a run — especially an adversarial one — an
auditor should be able to replay the finalized artifacts and certify
that the safety properties held.  :class:`SafetyAuditor` is that
auditor for this repo's SMR layer.

Given the honest replicas of one finished run (any engine behind the
:class:`~repro.smr.engine.ConsensusEngine` boundary, with or without
Byzantine peers), it extracts one :class:`ReplicaEvidence` per replica
— finalized chain, live state digest, applied-transaction log — and
checks, via the run-level registry in
:mod:`repro.verification.invariants`:

* **chain_links** — every finalized chain is hash-linked with strictly
  increasing slots;
* **chains_agree** — any two chains are prefix-consistent (agreement);
* **chains_no_fork** — no slot finalized two different blocks anywhere;
* **executed_once** — no replica applied a transaction twice;
* **replay_matches** — re-executing each chain on a fresh
  :class:`~repro.smr.kvstore.KVStore` (through ``apply_block``, the
  executor every replica runs) reproduces the replica's live state
  digest byte for byte: the live execution path and the ledger agree;
* **state_agreement** — replicas whose chains end at the same tip hold
  identical state digests;
* **live** — when an expected transaction count is given, every honest
  replica executed all of it (Definition 2's liveness, at the horizon).

The report is machine-readable (``checks`` plus human ``violations``),
which is what lets the adversarial campaign emit one verdict per grid
cell and lets a *negative control* prove the auditor actually detects
a forked history rather than vacuously passing everything.

Both checks stay though the replay runs the replica's own executor:
evidence arrives over sockets, from what a replica process reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.multishot.block import Block
from repro.smr.kvstore import KVStore
from repro.verification.invariants import (
    chain_links,
    chains_agree,
    chains_no_fork,
    executed_once,
)

#: The safety checks every audit performs, report order.
SAFETY_CHECKS = (
    "chain_links",
    "chains_agree",
    "chains_no_fork",
    "executed_once",
    "replay_matches",
    "state_agreement",
)


@dataclass(frozen=True)
class ReplicaEvidence:
    """What one honest replica contributes to the audit."""

    node_id: int
    chain: tuple[Block, ...]
    state_digest: str
    applied_txids: tuple[str, ...]

    @classmethod
    def from_replica(cls, replica) -> "ReplicaEvidence":
        """Extract evidence from a live :class:`~repro.smr.replica.Replica`."""
        return cls(
            node_id=replica.node_id,
            chain=tuple(replica.finalized_chain),
            state_digest=replica.state_digest(),
            applied_txids=tuple(replica.store.applied_txids),
        )


@dataclass
class AuditReport:
    """Machine-readable verdict of one run audit."""

    checks: dict[str, bool]
    live: bool | None = None
    violations: list[str] = field(default_factory=list)

    @property
    def safe(self) -> bool:
        """Every safety invariant held (liveness judged separately)."""
        return all(self.checks.get(name, False) for name in SAFETY_CHECKS)

    @property
    def ok(self) -> bool:
        """Safe, and live whenever liveness was assessed."""
        return self.safe and self.live is not False


def replay_chain(chain: tuple[Block, ...]) -> KVStore:
    """Re-execute one finalized chain on a fresh state machine.

    Each block goes through :meth:`KVStore.apply_block`, the executor
    the live replica runs, so a divergence between the returned store's
    digest and the replica's live digest means the execution path and
    the ledger disagree.
    """
    store = KVStore()
    for block in chain:
        store.apply_block(block)
    return store


class SafetyAuditor:
    """Replays finished runs through the run-level invariants.

    ``expected_txns`` enables the liveness verdict: every audited
    replica must have executed at least that many distinct workload
    transactions by the end of the run.
    """

    def __init__(self, expected_txns: int | None = None) -> None:
        self.expected_txns = expected_txns

    def audit(self, replicas) -> AuditReport:
        """Audit live replicas (honest ones only — the caller filters)."""
        return self.audit_evidence([ReplicaEvidence.from_replica(replica) for replica in replicas])

    def audit_evidence(self, evidence: list[ReplicaEvidence]) -> AuditReport:
        checks: dict[str, bool] = {}
        violations: list[str] = []

        def record(name: str, passed: bool, detail: str) -> None:
            checks[name] = passed
            if not passed:
                violations.append(f"{name}: {detail}")

        # Per-chain hash-pointer integrity.
        broken = [
            ev.node_id
            for ev in evidence
            if not chain_links([(b.slot, b.parent, b.digest) for b in ev.chain])
        ]
        record(
            "chain_links",
            not broken,
            f"mis-linked finalized chain on replicas {broken}",
        )

        # Cross-replica agreement (prefix consistency).
        digest_chains = [[b.digest for b in ev.chain] for ev in evidence]
        record(
            "chains_agree",
            chains_agree(digest_chains),
            "two honest replicas finalized conflicting prefixes",
        )

        # No slot finalized under two digests anywhere in the cluster.
        slot_digests: dict[int, set[str]] = {}
        for ev in evidence:
            for block in ev.chain:
                slot_digests.setdefault(block.slot, set()).add(block.digest)
        forked = sorted(s for s, d in slot_digests.items() if len(d) > 1)
        record(
            "chains_no_fork",
            chains_no_fork(slot_digests),
            f"slots finalized under multiple digests: {forked}",
        )

        # Execute-once, per replica.
        doubled = [
            ev.node_id for ev in evidence if not executed_once(ev.applied_txids)
        ]
        record(
            "executed_once",
            not doubled,
            f"replicas applied a transaction twice: {doubled}",
        )

        # Replay determinism: ledger ≡ live execution.
        mismatched = [
            ev.node_id
            for ev in evidence
            if replay_chain(ev.chain).state_digest() != ev.state_digest
        ]
        record(
            "replay_matches",
            not mismatched,
            f"chain replay diverges from live state on replicas {mismatched}",
        )

        # Same tip ⇒ same state.
        by_tip: dict[tuple[int, str], set[str]] = {}
        for ev in evidence:
            if ev.chain:
                tip = (ev.chain[-1].slot, ev.chain[-1].digest)
                by_tip.setdefault(tip, set()).add(ev.state_digest)
        split = sorted(tip for tip, digests in by_tip.items() if len(digests) > 1)
        record(
            "state_agreement",
            not split,
            f"replicas at the same tip hold different state digests: {split}",
        )

        live: bool | None = None
        if self.expected_txns is not None:
            lagging = [
                ev.node_id
                for ev in evidence
                if len(set(ev.applied_txids)) < self.expected_txns
            ]
            live = not lagging
            if lagging:
                violations.append(
                    f"live: replicas {lagging} executed fewer than "
                    f"{self.expected_txns} transactions"
                )
        return AuditReport(checks=checks, live=live, violations=violations)
