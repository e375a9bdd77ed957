"""Multi-shot (pipelined) TetraBFT: blocks, chain, node (paper Section 6)."""

from repro.multishot.batching import (
    MAX_BATCH,
    BatchingContext,
    iter_logical,
)
from repro.multishot.block import GENESIS_DIGEST, Block, BlockStore, Digest
from repro.multishot.chain import FINALITY_WINDOW, ChainState
from repro.multishot.messages import (
    MSProof,
    MSProposal,
    MSSuggest,
    MSViewChange,
    MSVote,
    MultiShotMessage,
    VoteBatch,
)
from repro.multishot.node import (
    RETENTION_SLOTS,
    MultiShotConfig,
    MultiShotNode,
    default_payload,
)

__all__ = [
    "BatchingContext",
    "Block",
    "BlockStore",
    "ChainState",
    "Digest",
    "FINALITY_WINDOW",
    "GENESIS_DIGEST",
    "MAX_BATCH",
    "MSProof",
    "MSProposal",
    "MSSuggest",
    "MSViewChange",
    "MSVote",
    "MultiShotConfig",
    "MultiShotMessage",
    "MultiShotNode",
    "RETENTION_SLOTS",
    "VoteBatch",
    "default_payload",
    "iter_logical",
]
