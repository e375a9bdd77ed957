"""Byzantine nodes for fault-injection tests and benches.

One wrapper, :class:`~repro.adversary.faulty_engine.FaultyEngine`,
corrupts any honest node — single-shot TetraBFT, the pipelined engine
or a chained baseline — through a pluggable
:class:`~repro.adversary.faulty_engine.Deviation`.
"""

from repro.adversary.faulty_engine import (
    ATTACK_NAMES,
    ATTACKS,
    Chaos,
    Deviation,
    Equivocate,
    EquivocateValues,
    FabricateHistory,
    FaultyEngine,
    ForgeSuggestProof,
    Havoc,
    Impostor,
    RepeatTransaction,
    ScheduledCrash,
    Silence,
    Withhold,
    faulty_factory,
    faulty_node,
)

__all__ = [
    "ATTACKS",
    "ATTACK_NAMES",
    "Chaos",
    "Deviation",
    "Equivocate",
    "EquivocateValues",
    "FabricateHistory",
    "FaultyEngine",
    "ForgeSuggestProof",
    "Havoc",
    "Impostor",
    "RepeatTransaction",
    "ScheduledCrash",
    "Silence",
    "Withhold",
    "faulty_factory",
    "faulty_node",
]
