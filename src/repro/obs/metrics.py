"""Metrics registry: counters, gauges, windowed histograms.

One :class:`MetricsRegistry` lives in every replica process and every
gateway.  It is deliberately boring: a flat, sorted namespace of
instruments, no labels, no background threads, no dependencies.  The
hot-path cost of an instrumented event is one attribute bump
(:meth:`Counter.inc`) or one deque append
(:meth:`WindowedHistogram.record`).

Determinism contract: every instrument takes an injectable ``clock``
(shared from the registry), and :meth:`MetricsRegistry.snapshot_items`
returns a *sorted* tuple of ``(name, float)`` pairs — the exact shape
``MetricsReply``/``CollectReply`` carry on the wire, so two registries
fed the same events under the same clock serialise identically.

Windowed histograms answer "what is happening *now*": samples older
than ``window`` seconds fall out, and the snapshot exports windowed
``count``, ``rate`` (events/sec over the window), ``mean``, ``p50``,
``p95`` and ``max``.  Recording the constant 1.0 per event turns a
histogram into a meter (the commit-rate instrument does exactly this).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from repro.metrics.smr_trackers import nearest_rank_percentiles


@dataclass
class Counter:
    """Monotonic counter.  ``value`` is public and mutable so mapping
    facades (the gateway's counter view) can rebase ``+=`` onto it."""

    name: str
    value: float = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Gauge:
    """Point-in-time value (mempool depth, queue lag, ...)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class WindowedHistogram:
    """Sliding-window sample set over an injectable clock.

    ``record(value)`` stamps the sample with ``clock()``; any read
    first evicts samples older than ``window`` seconds.  ``maxlen``
    bounds memory on hot instruments (eviction is oldest-first, which
    under overload degrades the window gracefully rather than OOMing).
    """

    name: str
    window: float = 10.0
    maxlen: int = 4096
    clock: object = time.monotonic
    _samples: deque = field(default_factory=deque, repr=False)

    def __post_init__(self) -> None:
        self._samples = deque(maxlen=self.maxlen)

    def record(self, value: float, at: float | None = None) -> None:
        self._samples.append((self.clock() if at is None else at, float(value)))

    def _live(self) -> list[float]:
        horizon = self.clock() - self.window
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()
        return [v for _, v in self._samples]

    @property
    def count(self) -> int:
        return len(self._live())

    @property
    def rate(self) -> float:
        """Events per second over the window."""
        return len(self._live()) / self.window if self.window > 0 else 0.0

    def percentile(self, q: int) -> float:
        """Nearest-rank percentile of the windowed samples (0 if empty)."""
        live = self._live()
        return nearest_rank_percentiles(live, (q,))[q] if live else 0.0

    def stats(self) -> dict[str, float]:
        live = sorted(self._live())
        if not live:
            return {"count": 0.0, "rate": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
        n = len(live)
        ranked = nearest_rank_percentiles(live, (50, 95))
        return {
            "count": float(n),
            "rate": n / self.window if self.window > 0 else 0.0,
            "mean": sum(live) / n,
            "p50": ranked[50],
            "p95": ranked[95],
            "max": live[-1],
        }


class MetricsRegistry:
    """Flat, sorted namespace of instruments for one process."""

    def __init__(self, clock=time.monotonic) -> None:
        self.clock = clock
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, WindowedHistogram] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str, window: float = 10.0, maxlen: int = 4096) -> WindowedHistogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = WindowedHistogram(
                name, window=window, maxlen=maxlen, clock=self.clock
            )
        return inst

    def snapshot(self) -> dict[str, float]:
        """All instruments flattened to ``name -> float``, sorted.

        Histograms expand to ``<name>.count/.rate/.mean/.p50/.p95/.max``.
        """
        out: dict[str, float] = {}
        for name, counter in self._counters.items():
            out[name] = float(counter.value)
        for name, gauge in self._gauges.items():
            out[name] = float(gauge.value)
        for name, hist in self._histograms.items():
            for suffix, value in hist.stats().items():
                out[f"{name}.{suffix}"] = value
        return dict(sorted(out.items()))

    def snapshot_items(self) -> tuple[tuple[str, float], ...]:
        """The wire shape: sorted ``(name, value)`` pairs."""
        return tuple(self.snapshot().items())


def items_to_dict(items) -> dict[str, float]:
    """Decode a wire metrics payload back into a dict."""
    return {str(name): float(value) for name, value in items}
