"""State-machine replication layer over a pluggable consensus engine."""

from repro.smr.engine import (
    ENGINE_NAMES,
    ConsensusEngine,
    EngineFactory,
    chained_engine,
    engine_factory,
    multishot_engine,
)
from repro.smr.kvstore import KVStore
from repro.smr.mempool import Mempool, Transaction
from repro.smr.replica import Replica

__all__ = [
    "ConsensusEngine",
    "ENGINE_NAMES",
    "EngineFactory",
    "KVStore",
    "Mempool",
    "Replica",
    "Transaction",
    "chained_engine",
    "engine_factory",
    "multishot_engine",
]
