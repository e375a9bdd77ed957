"""Safety ablation: the protocol *without* its rules really does fork.

The positive tests elsewhere show agreement always holds; these show
the converse — remove Rule 3 (a node votes for any proposal without
checking proofs) and a concrete Byzantine schedule produces conflicting
decisions.  This validates both the rules (they are load-bearing, not
redundant belt-and-braces) and the test harness (it can actually
observe a safety violation when one exists).

The same idea at the model level: mutate the spec's ``ShowsSafeAt`` to
accept everything and the explicit-state checker must find an agreement
counterexample — the mutation test that proves the checker's teeth.
"""

from __future__ import annotations

import pytest

from repro.adversary import Impostor, faulty_node
from repro.core import Phase, Proposal, ProtocolConfig, TetraBFTNode, ViewChange
from repro.errors import ProtocolViolation, VerificationError
from repro.quorums.system import NodeId
from repro.sim import Simulation, SynchronousDelays


class UnsafeNode(TetraBFTNode):
    """A TetraBFT node with Rule 3 ripped out: it votes for whatever the
    view's leader proposes, proofs be damned."""

    def _maybe_vote1(self) -> None:
        state = self._state
        if state.sent_phase[Phase.VOTE1] or state.proposal is None:
            return
        self._cast_vote(Phase.VOTE1, state.proposal.value)


class ConflictingProposer(Impostor):
    """Byzantine leader of view 1: proposes a fresh value with no safety
    justification whatsoever (a correct leader could never propose it,
    and Rule 3 would make followers reject it)."""

    def __init__(self, node_id: NodeId, config: ProtocolConfig, value: object) -> None:
        self.node_id = node_id
        self.config = config
        self.value = value
        self._proposed = False

    def hear(self, sender: NodeId, message: object) -> None:
        if self._proposed:
            return
        if isinstance(message, ViewChange) and message.view >= 1:
            if self.config.leader_of(1) == self.node_id:
                self._proposed = True
                self.engine._emit([(None, Proposal(1, self.value))])


def _run(node_cls) -> Exception | None:
    """View 0 decides value A; the Byzantine view-1 leader proposes B.

    Returns the ProtocolViolation raised by a node observing its own
    conflicting decision, or None if the run stayed safe.
    """
    config = ProtocolConfig.create(4)
    sim = Simulation(SynchronousDelays(1.0))
    sim.add_node(node_cls(0, config, initial_value="value-A"))
    sim.add_node(faulty_node(1, config, ConflictingProposer(1, config, value="value-B")))
    for i in (2, 3):
        sim.add_node(node_cls(i, config, initial_value=f"val-{i}"))
    try:
        sim.run(until=60)
    except ProtocolViolation as violation:
        return violation
    return None


class TestProtocolLevel:
    def test_without_rule3_agreement_breaks(self):
        violation = _run(UnsafeNode)
        assert violation is not None, (
            "removing Rule 3 should let the Byzantine proposer overturn "
            "the view-0 decision"
        )
        assert "conflicting decisions" in str(violation)

    def test_with_rule3_the_same_schedule_is_safe(self):
        assert _run(TetraBFTNode) is None


class TestModelLevel:
    def test_checker_catches_shows_safe_at_mutation(self, monkeypatch):
        """Mutate the spec's safety predicate to 'everything is safe':
        the explicit-state checker must now find an agreement violation
        (with a counterexample trace)."""
        import repro.verification.model as model
        from repro.verification import ModelConfig, check_agreement

        monkeypatch.setattr(model, "shows_safe_at", lambda *args, **kwargs: True)
        with pytest.raises(VerificationError) as excinfo:
            check_agreement(ModelConfig(n=4, f=1, num_values=2, max_round=1))
        assert excinfo.value.trace, "violation must come with a trace"

    def test_checker_catches_phase_gate_mutation(self, monkeypatch):
        """Drop the quorum precondition on later vote phases: phase-4
        votes become free and disagreement is immediate."""
        import repro.verification.model as model
        from repro.verification import ModelConfig, check_agreement

        monkeypatch.setattr(model, "accepted", lambda state, config, value, rnd, phase: True)
        with pytest.raises(VerificationError):
            check_agreement(
                ModelConfig(n=4, f=1, num_values=2, max_round=0),
                max_states=200_000,
            )
