"""Bench A1 — communication-complexity scaling (Table 1 bits column)
and A1b — simulator throughput.

The byte sweep fits growth exponents over an n sweep with one forced
view change per run.  Expected separation: TetraBFT and IT-HS land near
the quadratic total (O(n²) bits), PBFT's view change pushes it toward
the cubic (O(n³) worst case).

The throughput sweep runs full TetraBFT executions at n ∈ {4, 16, 64,
128} across the sync / geo / crash-recovery scenarios and reports the
event core's events-per-second figure, and a micro-benchmark pits the
tuple-heap scheduler against a faithful replica of the seed scheduler
(``order=True`` dataclass heap entries, per-message delivery closures,
per-copy wire-size estimation) on an n=64 synchronous all-to-all
broadcast workload.  The refactored core must clear 2× the replica's
rate — the floor the scaling roadmap item depends on.

Smoke invocation (rewrites the deterministic ``throughput`` record in
``BENCH_scaling.json``; events/sec is printed, not persisted):
``PYTHONPATH=src python -m pytest benchmarks/test_scaling.py -q``.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

from repro.eval.scaling import (
    PAPER_TOTAL_EXPONENTS,
    format_throughput_report,
    run_scaling,
    run_throughput,
)
from repro.metrics.collectors import MessageMetrics
from repro.sim import EventScheduler, Network, SynchronousDelays, Trace


def test_scaling_exponents(once):
    rows = once(run_scaling, ns=(4, 7, 10, 16, 22))
    print()
    by_name = {}
    for row in rows:
        print(
            f"{row.protocol:10s} total-exp={row.total_exponent:.2f} "
            f"(paper {PAPER_TOTAL_EXPONENTS[row.protocol]:.0f}) "
            f"per-node-exp={row.per_node_exponent:.2f}"
        )
        by_name[row.protocol] = row
    # Quadratic protocols: total exponent ≈ 2, per-node ≈ 1 (linear).
    for name in ("tetrabft", "it-hs"):
        assert 1.7 <= by_name[name].total_exponent <= 2.2, name
        assert by_name[name].per_node_exponent <= 1.2, name
    # PBFT's view change: clearly super-quadratic total, super-linear
    # per node, and separated from the quadratic protocols.
    pbft = by_name["pbft"]
    assert pbft.total_exponent >= 2.5
    assert pbft.per_node_exponent >= 1.5
    assert pbft.total_exponent > by_name["tetrabft"].total_exponent + 0.5
    # Absolute volumes tell the same story at the largest n.
    assert pbft.total_bytes[-1] > 4 * by_name["tetrabft"].total_bytes[-1]


def test_throughput_sweep_reaches_n128(once, bench_record):
    rows = once(run_throughput)
    print()
    print(format_throughput_report(rows))
    assert {row.n for row in rows} == {4, 16, 64, 128}
    assert {row.scenario for row in rows} == {"sync", "geo", "crash-recovery"}
    for row in rows:
        # Every scenario decides at every size, well inside the default
        # 2M-event budget — including the n=128 runs.
        assert row.decided, (row.scenario, row.n)
        assert row.events < 2_000_000, (row.scenario, row.n)
    bench_record(
        "scaling",
        "throughput",
        [
            {
                "scenario": row.scenario,
                "n": row.n,
                "events": row.events,
                "messages_per_delay": row.messages_per_delay,
                "frames_per_delay": row.frames_per_delay,
                "decided": row.decided,
            }
            for row in rows
        ],
    )


# --- seed-scheduler replica for the 2× micro-benchmark -----------------
#
# A faithful copy of the pre-refactor hot path: the heap holds
# order=True dataclass instances (every sift calls a generated Python
# __lt__), each delivery allocates a closure plus an f-string label, and
# every broadcast copy re-estimates the message's wire size.  Kept here
# so the speedup claim stays measurable against the exact code shape it
# replaced.


@dataclass(order=True)
class _SeedEvent:
    time: float
    seq: int
    callback: object = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)


class _SeedScheduler:
    def __init__(self) -> None:
        self._heap: list[_SeedEvent] = []
        self._counter = itertools.count()
        self._now = 0.0
        self.events_fired = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay, callback, label=""):
        event = _SeedEvent(
            time=self._now + delay, seq=next(self._counter),
            callback=callback, label=label,
        )
        heapq.heappush(self._heap, event)
        return event

    def run(self) -> float:
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = event.time
            self.events_fired += 1
            event.callback()
        return self._now


class _SeedNetwork:
    def __init__(self, scheduler, policy) -> None:
        self.scheduler = scheduler
        self.policy = policy
        self.metrics = MessageMetrics()
        self.trace = Trace(enabled=False)
        self._inboxes = {}

    def register(self, node_id, deliver) -> None:
        self._inboxes[node_id] = deliver

    @property
    def node_ids(self):
        return sorted(self._inboxes)

    def send(self, src, dst, message) -> None:
        self.metrics.record_send(src, message)
        self.trace.record(self.scheduler.now, src, None, dst=dst, msg=type(message).__name__)
        delay = self.policy.delay(self.scheduler.now, src, dst, message)
        if delay is None:
            self.metrics.record_drop(src)
            return
        self.scheduler.schedule(
            delay,
            lambda: self._deliver(src, dst, message),
            label=f"deliver {type(message).__name__} {src}->{dst}",
        )

    def broadcast(self, src, message) -> None:
        for dst in self.node_ids:
            self.send(src, dst, message)

    def _deliver(self, src, dst, message) -> None:
        self.metrics.record_delivery(src)
        self.trace.record(self.scheduler.now, dst, None, src=src, msg=type(message).__name__)
        self._inboxes[dst](src, message)


@dataclass(frozen=True)
class _Ping:
    round: int
    origin: int


def _drive_broadcast_workload(scheduler, network, n=64, rounds=6):
    """All-to-all broadcast rounds: n² deliveries per round."""
    received = [0] * n
    for i in range(n):
        network.register(i, lambda s, m, i=i: received.__setitem__(i, received[i] + 1))

    def kick(r: int) -> None:
        for src in range(n):
            network.broadcast(src, _Ping(r, src))
        if r + 1 < rounds:
            scheduler.schedule(2.0, lambda: kick(r + 1))

    scheduler.schedule(0.0, lambda: kick(0))
    start = time.perf_counter()
    scheduler.run()
    wall = time.perf_counter() - start
    fired = scheduler.events_fired
    assert all(count == n * rounds for count in received)
    return fired / wall


def _best_of(fn, repeats=3):
    return max(fn() for _ in range(repeats))


def test_event_core_at_least_2x_seed_scheduler(benchmark):
    n, rounds = 64, 6

    def seed_eps():
        scheduler = _SeedScheduler()
        network = _SeedNetwork(scheduler, SynchronousDelays(1.0))
        return _drive_broadcast_workload(scheduler, network, n, rounds)

    def new_eps():
        scheduler = EventScheduler()
        network = Network(scheduler, SynchronousDelays(1.0))
        return _drive_broadcast_workload(scheduler, network, n, rounds)

    seed = _best_of(seed_eps)
    new = benchmark.pedantic(lambda: _best_of(new_eps), rounds=1, iterations=1)
    print(f"\nseed scheduler: {seed:,.0f} events/s   "
          f"tuple-heap core: {new:,.0f} events/s   ratio {new / seed:.2f}x")
    assert new >= 2.0 * seed, (
        f"event core regressed: {new:,.0f} vs seed {seed:,.0f} events/s "
        f"({new / seed:.2f}x, need >= 2x)"
    )
