"""Unit tests for tracing and metric collectors."""

from __future__ import annotations

import pytest

from repro.metrics import (
    LatencyMetrics,
    MessageMetrics,
    StorageMetrics,
    estimate_wire_size,
)
from repro.sim import Trace, TraceKind


class TestTrace:
    def test_record_and_filter_by_kind(self):
        trace = Trace()
        trace.record(1.0, 0, TraceKind.VOTE, phase=1)
        trace.record(2.0, 1, TraceKind.DECIDE, value="v")
        assert len(trace) == 2
        votes = trace.events(TraceKind.VOTE)
        assert len(votes) == 1
        assert votes[0].get("phase") == 1

    def test_filter_by_node_and_predicate(self):
        trace = Trace()
        for node in range(3):
            trace.record(float(node), node, TraceKind.VOTE, phase=node)
        assert len(trace.events(node=1)) == 1
        late = trace.events(where=lambda e: e.time >= 1.0)
        assert len(late) == 2

    def test_first_returns_earliest_match(self):
        trace = Trace()
        trace.record(1.0, 0, TraceKind.DECIDE, value="a")
        trace.record(2.0, 1, TraceKind.DECIDE, value="b")
        first = trace.first(TraceKind.DECIDE)
        assert first is not None and first.get("value") == "a"

    def test_disabled_trace_records_nothing(self):
        trace = Trace(enabled=False)
        trace.record(1.0, 0, TraceKind.VOTE)
        assert len(trace) == 0

    def test_event_get_default(self):
        trace = Trace()
        trace.record(0.0, 0, TraceKind.CUSTOM, a=1)
        event = trace.events()[0]
        assert event.get("missing", "dflt") == "dflt"


class TestMessageMetrics:
    def test_send_accounting(self):
        metrics = MessageMetrics()
        metrics.record_send(0, "hello")
        metrics.record_send(0, "bye")
        metrics.record_send(1, "x")
        assert metrics.sent_count[0] == 2
        assert metrics.total_messages_sent == 3
        assert metrics.bytes_sent_by_node[0] == 8
        assert metrics.max_bytes_per_node() == 8
        assert metrics.count_by_type["str"] == 3

    def test_wire_size_protocol_hook(self):
        class Sized:
            def wire_size(self):
                return 123

        assert estimate_wire_size(Sized()) == 123
        # The hook is consulted at every nesting level: a modelled O(n)
        # view change counts the same inside a chained engine's envelope.
        from repro.baselines.base import BViewChange
        from repro.baselines.chained import SlotMessage

        view_change = BViewChange("pbft", 1, -1, None, entries=42)
        assert estimate_wire_size(SlotMessage(3, view_change)) == 8 + view_change.wire_size()
        assert estimate_wire_size((Sized(), [Sized()])) == 2 * 123

    def test_wire_size_dataclass_recursion(self):
        from dataclasses import dataclass

        @dataclass
        class Inner:
            a: int
            b: str

        assert estimate_wire_size(Inner(1, "xyz")) == 8 + 3

    def test_wire_size_collections(self):
        assert estimate_wire_size((1, 2, 3)) == 24
        assert estimate_wire_size(None) == 1

    def test_wire_size_dict_recurses(self):
        """Regression: dicts used to be flat-charged 8 bytes, badly
        undercounting dict-carrying messages."""
        assert estimate_wire_size({"ab": 1}) == 2 + 8
        assert estimate_wire_size({"k": (1, 2), "xyz": "ab"}) == (1 + 16) + (3 + 2)
        assert estimate_wire_size({}) == 0
        # Nested containers keep recursing through the dict.
        assert estimate_wire_size(({"a": 1}, 2)) == (1 + 8) + 8


class TestLatencyMetrics:
    def test_first_decision_wins(self):
        metrics = LatencyMetrics()
        metrics.record_decision(0, "a", 5.0)
        metrics.record_decision(0, "a", 9.0)
        assert metrics.decision_times[0] == 5.0

    def test_all_decided_and_max(self):
        metrics = LatencyMetrics()
        metrics.record_decision(0, "a", 5.0)
        assert not metrics.all_decided([0, 1])
        metrics.record_decision(1, "a", 7.0)
        assert metrics.all_decided([0, 1])
        assert metrics.max_decision_time() == 7.0

    def test_max_decision_time_empty_raises(self):
        with pytest.raises(ValueError):
            LatencyMetrics().max_decision_time()

    def test_view_entries_accumulate(self):
        metrics = LatencyMetrics()
        metrics.record_view_entry(0, 1, 10.0)
        metrics.record_view_entry(0, 2, 20.0)
        assert metrics.view_entry_times[0] == [(1, 10.0), (2, 20.0)]


class TestStorageMetrics:
    def test_max_per_node_and_global(self):
        metrics = StorageMetrics()
        metrics.record(0, 10)
        metrics.record(0, 30)
        metrics.record(1, 20)
        assert metrics.max_storage(0) == 30
        assert metrics.max_storage() == 30
        assert metrics.max_storage(2) == 0

    def test_repeated_reports_keep_one_entry(self):
        metrics = StorageMetrics()
        for _ in range(1000):
            metrics.record(0, 96)
            metrics.record(0, 192)
        assert metrics.sizes[0] == {96, 192}
        assert metrics.max_storage(0) == 192


class TestSMRTrackers:
    def test_latency_percentiles_in_message_delays(self):
        from repro.metrics import LatencyTracker

        tracker = LatencyTracker()
        for k in range(100):
            tracker.record_submit(f"t{k}", 0.0)
            tracker.record_commit(0, f"t{k}", float(k + 1))
        percentiles = tracker.percentiles(delta=2.0)
        assert percentiles[50] == 25.0  # 50th of 1..100, in units of Δ=2
        assert percentiles[95] == 47.5
        assert percentiles[99] == 49.5

    def test_latency_first_submit_wins_and_untracked_commit_ignored(self):
        from repro.metrics import LatencyTracker
        import math

        tracker = LatencyTracker()
        tracker.record_submit("t", 1.0)
        tracker.record_submit("t", 5.0)  # same txn at another replica
        tracker.record_commit(0, "t", 4.0)
        tracker.record_commit(1, "ghost", 4.0)  # never submitted
        assert tracker.sample_count == 1
        assert tracker.percentiles()[50] == 3.0
        assert all(math.isnan(v) for v in LatencyTracker().percentiles().values())

    def test_throughput_cluster_minimums_and_peak(self):
        from repro.metrics import ThroughputTracker

        tracker = ThroughputTracker()
        tracker.record_block(0, 1, 10, 40, 5.0)
        tracker.record_block(0, 2, 10, 25, 6.0)
        tracker.record_block(1, 1, 10, 55, 5.0)
        assert tracker.txns_applied(0) == 20
        assert tracker.min_txns_applied([0, 1]) == 10
        assert tracker.min_blocks_applied([0, 1]) == 1
        assert tracker.peak_mempool([0, 1]) == 55
        assert tracker.peak_mempool([0]) == 40
        assert tracker.last_commit_time == 6.0
        # Empty blocks count toward blocks but never move the commit
        # clock — trailing no-op slots must not stretch the duration.
        tracker.record_block(1, 2, 0, 0, 9.0)
        assert tracker.last_commit_time == 6.0
        assert tracker.min_blocks_applied([0, 1]) == 2
        assert tracker.min_txns_applied([]) == 0

    def test_submit_side_mempool_samples_raise_the_peak(self):
        """Regression: the peak must be visible from submit-time
        samples — sampling only after a block's drain undercounts the
        backlog a burst creates."""
        from repro.metrics import ThroughputTracker

        tracker = ThroughputTracker()
        tracker.record_mempool(0, 50)  # burst lands
        tracker.record_block(0, 1, 10, 40, 5.0)  # sampled after drain
        assert tracker.peak_mempool([0]) == 50
