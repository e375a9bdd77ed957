"""Bench (ablation) — liveness-hardening mechanisms of the node.

Asserts the measured finding :mod:`repro.eval.hardening_ablation` states:
retransmission is load-bearing (liveness fails without it under heavy
pre-GST loss); the vote-4 ledger is redundant given full decided-node
participation (liveness holds either way — it is a fast path only).
"""

from __future__ import annotations

from repro.eval.hardening_ablation import run_hardening_ablation


def test_hardening_ablation(once):
    outcomes = once(run_hardening_ablation, (0, 1, 2, 3, 4, 5))
    print()
    by_name = {}
    for outcome in outcomes:
        print(
            f"{outcome.mechanism:15s} enabled={outcome.enabled_all_decide} "
            f"disabled={outcome.disabled_all_decide}"
        )
        by_name[outcome.mechanism] = outcome
    retrans = by_name["retransmission"]
    assert retrans.enabled_all_decide, "baseline liveness broken"
    assert not retrans.disabled_all_decide, (
        "retransmission should be load-bearing under 90% pre-GST loss"
    )
    ledger = by_name["vote4_ledger"]
    assert ledger.enabled_all_decide
    # The documented negative result: the view-change path rescues the
    # starved minority even without the ledger.
    assert ledger.disabled_all_decide
