"""Commit-path tracing: sampled per-txn spans, correlated by txid.

A transaction crosses five stages on its way through the deployed
stack::

    admit     gateway admission (HTTP request accepted)
    submit    ClientSubmit hits the driver / replica client port
    propose   a leader packs the txn into a proposed block
    finalize  the block finalizes and the txn executes
    ack       the CommitAck reaches the submitting client

Tracing every txn would distort the capacity cells, so sampling is
*deterministic in the txid*: ``crc32(txid) % sample_every == 0``.
Every process that sees the txn — gateway, driver, each replica —
makes the same keep/drop decision without coordination, so the
per-stage timestamps recorded in different processes describe the
same txn population.

Each tracer is process-local and clock-injectable.  A span completes
when its terminal stage is recorded; :meth:`breakdown` reduces the
completed spans to per-stage-transition latency stats, and
:meth:`publish` exports those into a :class:`MetricsRegistry` under
``trace.<from>_to_<to>.*`` so scrape frames carry the breakdown.
"""

from __future__ import annotations

import time
import zlib

from repro.metrics.smr_trackers import nearest_rank_percentiles

#: Canonical stage order of the commit path.
TRACE_STAGES = ("admit", "submit", "propose", "finalize", "ack")


class CommitPathTracer:
    """Sampled commit-path spans for one process.

    Every deployed process keeps the default ``sample_every``, so all
    of them sample the same txids; ``sample_every=1`` traces every txn
    (tests).
    """

    def __init__(
        self,
        sample_every: int = 16,
        clock=time.monotonic,
        capacity: int = 1024,
        terminal: str = "ack",
    ) -> None:
        self.sample_every = sample_every
        self.clock = clock
        self.capacity = capacity
        self.terminal = terminal
        self._open: dict[str, dict[str, float]] = {}
        self._done: list[dict] = []

    def sampled(self, txid: str) -> bool:
        return zlib.crc32(txid.encode("utf-8")) % self.sample_every == 0

    def record(self, txid: str, stage: str, at: float | None = None) -> bool:
        """Record ``stage`` for ``txid`` if it is in the sample.

        Returns whether the event was kept.  Unknown stages are kept
        too (the vocabulary is open), but only :data:`TRACE_STAGES`
        transitions appear in :meth:`breakdown`.
        """
        if not self.sampled(txid):
            return False
        span = self._open.get(txid)
        if span is None:
            if len(self._open) >= self.capacity:
                return False  # bounded: drop new spans under overload
            span = self._open[txid] = {}
        span.setdefault(stage, self.clock() if at is None else at)
        if stage == self.terminal:
            self._done.append({"txid": txid, "stages": self._open.pop(txid)})
            if len(self._done) > self.capacity:
                del self._done[: len(self._done) - self.capacity]
        return True

    def spans(self) -> list[dict]:
        """Completed spans, oldest first."""
        return list(self._done)

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Per-stage-transition latency stats over completed spans.

        Keys are ``"<from>_to_<to>"`` for consecutive recorded stages
        (missing stages are skipped, so a driver-side tracer that only
        sees submit/ack reports ``submit_to_ack``).  Values carry
        ``count``, ``mean``, ``p50``, ``p95``, ``max`` in seconds.
        """
        deltas: dict[str, list[float]] = {}
        for span in self._done:
            stages = span["stages"]
            seen = [s for s in TRACE_STAGES if s in stages]
            for a, b in zip(seen, seen[1:]):
                dt = stages[b] - stages[a]
                if dt >= 0:
                    deltas.setdefault(f"{a}_to_{b}", []).append(dt)
        out: dict[str, dict[str, float]] = {}
        for key, values in sorted(deltas.items()):
            values.sort()
            n = len(values)
            ranked = nearest_rank_percentiles(values, (50, 95))
            out[key] = {
                "count": float(n),
                "mean": sum(values) / n,
                "p50": ranked[50],
                "p95": ranked[95],
                "max": values[-1],
            }
        return out

    def publish(self, registry, prefix: str = "trace.") -> None:
        """Export the breakdown into a registry as gauges."""
        for key, stats in self.breakdown().items():
            for suffix in ("count", "mean", "p95"):
                registry.gauge(f"{prefix}{key}.{suffix}").set(stats[suffix])
