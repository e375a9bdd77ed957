"""The pluggable consensus-engine boundary of the SMR layer.

The paper's headline claims are *comparative* — TetraBFT's good-case
and view-change latency against PBFT- and IT-HotStuff-style protocols —
so the end-to-end SMR experiment must be able to run the same client
path (mempool, in-flight dedup, deterministic execution, state digests)
over any of them.  Generalized consensus layers such as *pod*
(PAPERS.md) make exactly this separation: a client-facing replication
layer over a swappable ordering core.  This module defines that seam.

A :class:`ConsensusEngine` is the ordering core one
:class:`~repro.smr.replica.Replica` drives.  The contract, structurally
(it is a :class:`typing.Protocol`, so implementations need not inherit
anything):

* **construction hooks** — an engine is built by an
  :data:`EngineFactory` that receives the replica's *propose-payload
  hook* (``payload_fn(slot, parent_digest) -> payload``, called when
  this node leads a slot) and *finalization callback*
  (``on_finalize(block)``, called exactly once per finalized block, in
  chain order);
* ``start(ctx)`` / ``receive(sender, message)`` — the
  :class:`~repro.sim.runner.SimNode` plumbing, forwarded verbatim by
  the replica;
* ``store`` — the engine's :class:`~repro.multishot.block.BlockStore`
  (the *storage hook*: the replica's proposer walks the lineage it
  extends through it, :func:`~repro.smr.replica.txids_in_flight`, and
  engines prune it behind their finalized tip);
* ``finalized_chain`` — the committed blocks, oldest first.

Two implementations ship:

* :class:`~repro.multishot.node.MultiShotNode` — the **reference
  implementation**: pipelined Multi-shot TetraBFT (one block per
  message delay in the good case).  :func:`multishot_engine` adapts a
  :class:`~repro.multishot.MultiShotConfig` into a factory that wires
  it exactly as the replica used to by hand, so TetraBFT through this
  boundary is byte-identical (state digests *and* traces) to the old
  direct-wired path.
* :class:`~repro.baselines.chained.ChainedEngine` — the Table 1
  baselines (PBFT, IT-HotStuff, Li et al.) promoted from single-shot
  protocol skeletons to multi-slot chained engines, so the comparison
  protocols run the *full* client path too (:func:`chained_engine`).

:func:`engine_factory` is the name-keyed registry the cross-protocol
experiment (``python -m repro engines``) and the CLI build from.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Protocol, runtime_checkable

from repro.baselines.base import BaselineSpec
from repro.baselines.ithotstuff import IT_HS_SPEC
from repro.baselines.li import LI_SPEC
from repro.baselines.pbft import PBFT_BOUNDED_SPEC
from repro.core.config import ProtocolConfig
from repro.errors import ConfigurationError
from repro.multishot.batching import BatchingContext, iter_logical
from repro.multishot.block import Block, BlockStore
from repro.multishot.messages import VoteBatch
from repro.multishot.node import FinalizeCallback, MultiShotConfig, MultiShotNode, PayloadFn
from repro.quorums.system import NodeId
from repro.sim.runner import NodeContext

__all__ = [
    "BatchingContext",
    "ConsensusEngine",
    "ENGINE_NAMES",
    "EngineFactory",
    "VoteBatch",
    "chained_engine",
    "engine_factory",
    "iter_logical",
    "multishot_engine",
]


@runtime_checkable
class ConsensusEngine(Protocol):
    """Structural interface of an SMR ordering core (see module docs)."""

    node_id: NodeId

    def start(self, ctx: NodeContext) -> None:
        """Begin participating; ``ctx`` carries clock/network/timers."""

    def receive(self, sender: NodeId, message: object) -> None:
        """Deliver one consensus message from ``sender``."""

    @property
    def store(self) -> BlockStore:
        """Block bodies this engine has seen (pruned behind the tip)."""

    @property
    def finalized_chain(self) -> list[Block]:
        """The committed chain, oldest block first."""


#: Builds one engine for one replica: (node id, propose-payload hook,
#: finalization callback) → engine.  The factory owns every other
#: parameter (protocol config, slot bounds); the replica owns the hooks.
EngineFactory = Callable[[NodeId, PayloadFn, FinalizeCallback], ConsensusEngine]

#: Registry keys accepted by :func:`engine_factory`, in report order.
ENGINE_NAMES = ("tetrabft", "pbft", "ithotstuff", "li")

_CHAINED_SPECS: dict[str, BaselineSpec] = {
    "pbft": PBFT_BOUNDED_SPEC,
    "ithotstuff": IT_HS_SPEC,
    "li": LI_SPEC,
}


def multishot_engine(config: MultiShotConfig, batching: bool = True) -> EngineFactory:
    """Factory for the reference engine: pipelined Multi-shot TetraBFT.

    Wires :class:`MultiShotNode` precisely as
    :class:`~repro.smr.replica.Replica` historically did inline, which
    is what keeps the refactored path byte-identical to the pre-engine
    wiring.  ``batching=False`` runs the unbatched reference message
    plane.
    """

    def build(
        node_id: NodeId, payload_fn: PayloadFn, on_finalize: FinalizeCallback
    ) -> ConsensusEngine:
        return MultiShotNode(
            node_id, config, payload_fn=payload_fn, on_finalize=on_finalize, batching=batching
        )

    return build


def chained_engine(
    spec: BaselineSpec,
    base: ProtocolConfig,
    max_slots: int | None = None,
    batching: bool = True,
) -> EngineFactory:
    """Factory for a Table 1 baseline run as a multi-slot chained engine."""
    from repro.baselines.chained import ChainedEngine

    def build(
        node_id: NodeId, payload_fn: PayloadFn, on_finalize: FinalizeCallback
    ) -> ConsensusEngine:
        return ChainedEngine(
            node_id,
            base,
            spec,
            payload_fn=payload_fn,
            on_finalize=on_finalize,
            max_slots=max_slots,
            batching=batching,
        )

    return build


def engine_factory(
    name: str,
    base: ProtocolConfig,
    max_slots: int | None = None,
    batching: bool = True,
) -> EngineFactory:
    """The named engine over ``base`` — the registry behind ``repro engines``.

    ``max_slots`` bounds how far leaders extend the chain; ``None``
    leaves chained baselines unbounded (their slots finalize eagerly,
    so runs are bounded by the workload and horizon instead) and gives
    TetraBFT its default finite budget.  ``batching=False`` runs the
    unbatched reference message plane for A/B runs.
    """
    if name == "tetrabft":
        config = (
            MultiShotConfig(base=base)
            if max_slots is None
            else MultiShotConfig(base=base, max_slots=max_slots)
        )
        return multishot_engine(config, batching=batching)
    spec = _CHAINED_SPECS.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown consensus engine {name!r}; known: {', '.join(ENGINE_NAMES)}"
        )
    return chained_engine(spec, base, max_slots=max_slots, batching=batching)
