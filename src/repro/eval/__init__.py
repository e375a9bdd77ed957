"""Evaluation harness: one module per paper table/figure plus ablations.

Every module is runnable (``python -m repro.eval.table1`` etc.) and is
also wrapped by a pytest-benchmark bench under ``benchmarks/``.  The
experiment-id ↔ module mapping lives in DESIGN.md §3; measured-vs-paper
results are recorded in EXPERIMENTS.md.
"""

from repro.eval.attacks import (
    AttackRow,
    CampaignRunner,
    place_adversaries,
    run_attack_cell,
    run_attack_grid,
    run_attack_smoke,
)
from repro.eval.engine_matrix import (
    run_batching_ablation,
    run_engine_matrix,
    run_engine_smoke,
)
from repro.eval.fig1_lemmas import LemmaChainResult, run_lemma_chain
from repro.eval.gateway_bench import (
    GatewayCellResult,
    GatewayRow,
    run_gateway_cell,
)
from repro.eval.net_bench import (
    NetRow,
    run_net_cell,
    run_net_grid,
    run_net_smoke,
)
from repro.eval.fig2_pipeline import PipelineResult, run_pipeline
from repro.eval.fig3_viewchange import ViewChangeResult, run_viewchange
from repro.eval.responsiveness import ResponsivenessPoint, run_responsiveness
from repro.eval.scaling import ScalingRow, run_scaling
from repro.eval.smr_bench import SMRRow, run_smr_bench, run_smr_sweep, run_smr_smoke
from repro.eval.table1 import PROTOCOLS, ProtocolEntry, run_table1
from repro.eval.timeout_ablation import TimeoutPoint, run_timeout_ablation
from repro.eval.verification_run import VerificationSummary, run_verification

__all__ = [
    "AttackRow",
    "CampaignRunner",
    "GatewayCellResult",
    "GatewayRow",
    "LemmaChainResult",
    "NetRow",
    "PROTOCOLS",
    "PipelineResult",
    "ProtocolEntry",
    "ResponsivenessPoint",
    "SMRRow",
    "ScalingRow",
    "TimeoutPoint",
    "VerificationSummary",
    "ViewChangeResult",
    "place_adversaries",
    "run_attack_cell",
    "run_attack_grid",
    "run_attack_smoke",
    "run_batching_ablation",
    "run_engine_matrix",
    "run_engine_smoke",
    "run_gateway_cell",
    "run_lemma_chain",
    "run_net_cell",
    "run_net_grid",
    "run_net_smoke",
    "run_pipeline",
    "run_responsiveness",
    "run_scaling",
    "run_smr_bench",
    "run_smr_smoke",
    "run_smr_sweep",
    "run_table1",
    "run_timeout_ablation",
    "run_verification",
    "run_viewchange",
]
