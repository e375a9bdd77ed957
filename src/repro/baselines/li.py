"""Li, Chan & Lesani (DISC 2023) — Table 1 comparison row.

A non-responsive protocol built from two chained instances of
three-phase Byzantine reliable broadcast: 6 message delays in both the
good case and after a timeout, with unbounded storage.  We model it in
the generic chain machine as one proposal plus five phases, a
non-responsive leader, and an unbounded message log.

Approximation note: the original has no leader-centric view-change
rounds (recovery is a timer-driven restart), so its restart latency is
the same 6 delays.  Our harness necessarily spends one extra delay on
the explicit view-change signal, so the measured restart latency is 7,
an expected one-delay accounting difference.
"""

from __future__ import annotations

from repro.baselines.base import BaselineSpec, ChainVotingNode
from repro.core.config import ProtocolConfig
from repro.quorums.system import NodeId

LI_SPEC = BaselineSpec(
    name="li-et-al",
    phases=("rbc1-echo", "rbc1-ready", "rbc2-send", "rbc2-echo", "rbc2-ready"),
    pre_rounds=(),
    responsive=False,
    unbounded_log=True,
)


class LiNode(ChainVotingNode):
    """A well-behaved participant of the Li et al. protocol model."""

    def __init__(self, node_id: NodeId, config: ProtocolConfig, initial_value: object) -> None:
        super().__init__(node_id, config, LI_SPEC, initial_value)
