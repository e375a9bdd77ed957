"""TetraBFT — unauthenticated, responsive BFT consensus (PODC 2024).

A from-scratch Python reproduction of *TetraBFT: Reducing Latency of
Unauthenticated, Responsive BFT Consensus* (Yu, Losa, Wang), including
the single-shot protocol, the pipelined multi-shot protocol, an SMR
layer, the Table 1 baseline protocols, a partially synchronous
discrete-event network, Byzantine adversaries, and a model-checking
substrate reproducing the paper's TLA+ verification.

Quick start::

    from repro import ProtocolConfig, Simulation, TetraBFTNode

    config = ProtocolConfig.create(4)           # n=4, f=1
    sim = Simulation()                          # synchronous, delta=1
    for i in range(4):
        sim.add_node(TetraBFTNode(i, config, initial_value=f"v{i}"))
    sim.run_until_all_decided()
    print(sim.metrics.latency.decision_values)  # one value, 5 delays

See README.md for the architecture tour, the experiment list and the
measured results.
"""

from repro.core import (
    GENESIS_VIEW,
    Phase,
    ProtocolConfig,
    TetraBFTNode,
    VoteStorage,
)
from repro.errors import (
    ConfigurationError,
    ProtocolViolation,
    QuorumSystemError,
    ReproError,
    SimulationError,
    VerificationError,
)
from repro.multishot import Block, MultiShotConfig, MultiShotNode
from repro.quorums import (
    FBAQuorumSystem,
    QuorumSystem,
    SliceConfig,
    ThresholdQuorumSystem,
)
from repro.sim import (
    PartialSynchronyPolicy,
    Simulation,
    SynchronousDelays,
    UniformRandomDelays,
)
from repro.smr import (
    ConsensusEngine,
    KVStore,
    Mempool,
    Replica,
    Transaction,
    engine_factory,
)

__version__ = "0.6.0"

__all__ = [
    "Block",
    "ConfigurationError",
    "ConsensusEngine",
    "FBAQuorumSystem",
    "GENESIS_VIEW",
    "KVStore",
    "Mempool",
    "MultiShotConfig",
    "MultiShotNode",
    "PartialSynchronyPolicy",
    "Phase",
    "ProtocolConfig",
    "ProtocolViolation",
    "QuorumSystem",
    "QuorumSystemError",
    "Replica",
    "ReproError",
    "Simulation",
    "SimulationError",
    "SliceConfig",
    "SynchronousDelays",
    "TetraBFTNode",
    "ThresholdQuorumSystem",
    "Transaction",
    "UniformRandomDelays",
    "VerificationError",
    "VoteStorage",
    "__version__",
    "engine_factory",
]
