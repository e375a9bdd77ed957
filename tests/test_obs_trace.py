"""Commit-path tracer contract: deterministic sampling, breakdown math.

The load-bearing property is that sampling is a pure function of the
txid: every process (gateway, driver, each replica) keeps or drops the
same transactions with zero coordination, so per-stage timestamps from
different processes describe one txn population.
"""

from __future__ import annotations

from repro.obs import TRACE_STAGES, CommitPathTracer, MetricsRegistry


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def test_stage_vocabulary_is_pinned():
    assert TRACE_STAGES == ("admit", "submit", "propose", "finalize", "ack")


def test_sampling_is_deterministic_in_the_txid():
    a = CommitPathTracer(sample_every=4)
    b = CommitPathTracer(sample_every=4)
    txids = [f"tx-{i}" for i in range(200)]
    assert [a.sampled(t) for t in txids] == [b.sampled(t) for t in txids]
    kept = sum(a.sampled(t) for t in txids)
    assert 0 < kept < len(txids)  # roughly 1/4, never all or none


def test_span_completes_at_the_terminal_stage():
    clock = FakeClock()
    tracer = CommitPathTracer(sample_every=1, clock=clock, terminal="ack")
    clock.now = 1.0
    assert tracer.record("tx-9", "admit")
    clock.now = 1.5
    tracer.record("tx-9", "submit")
    clock.now = 2.0
    tracer.record("tx-9", "finalize")
    assert tracer.spans() == []  # still open
    clock.now = 2.25
    tracer.record("tx-9", "ack")
    (span,) = tracer.spans()
    assert span["txid"] == "tx-9"
    assert span["stages"] == {"admit": 1.0, "submit": 1.5, "finalize": 2.0, "ack": 2.25}


def test_first_timestamp_per_stage_wins():
    clock = FakeClock()
    tracer = CommitPathTracer(sample_every=1, clock=clock, terminal="finalize")
    tracer.record("tx-1", "submit", at=1.0)
    tracer.record("tx-1", "submit", at=9.0)  # duplicate delivery
    tracer.record("tx-1", "finalize", at=2.0)
    (span,) = tracer.spans()
    assert span["stages"]["submit"] == 1.0


def test_breakdown_reduces_consecutive_stage_pairs():
    tracer = CommitPathTracer(sample_every=1, terminal="ack")
    for i, (submit, fin, ack) in enumerate([(0.0, 1.0, 1.5), (0.0, 3.0, 3.5)]):
        txid = f"tx-{i}"
        tracer.record(txid, "submit", at=submit)
        tracer.record(txid, "finalize", at=fin)
        tracer.record(txid, "ack", at=ack)
    breakdown = tracer.breakdown()
    # "propose" was never seen: the pairs skip over missing stages.
    assert set(breakdown) == {"submit_to_finalize", "finalize_to_ack"}
    sf = breakdown["submit_to_finalize"]
    assert sf["count"] == 2.0 and sf["mean"] == 2.0 and sf["max"] == 3.0
    assert breakdown["finalize_to_ack"]["p50"] == 0.5


def test_publish_exports_gauges_into_a_registry():
    tracer = CommitPathTracer(sample_every=1, terminal="ack")
    tracer.record("tx-1", "submit", at=0.0)
    tracer.record("tx-1", "ack", at=2.0)
    registry = MetricsRegistry(clock=FakeClock())
    tracer.publish(registry)
    snap = registry.snapshot()
    assert snap["trace.submit_to_ack.count"] == 1.0
    assert snap["trace.submit_to_ack.mean"] == 2.0
    assert snap["trace.submit_to_ack.p95"] == 2.0


def test_open_spans_are_capacity_bounded():
    tracer = CommitPathTracer(sample_every=1, capacity=2, terminal="ack")
    assert tracer.record("tx-1", "submit")
    assert tracer.record("tx-2", "submit")
    assert not tracer.record("tx-3", "submit")  # dropped, never tracked
    tracer.record("tx-1", "ack")
    assert tracer.record("tx-3", "submit")  # slot freed by completion
