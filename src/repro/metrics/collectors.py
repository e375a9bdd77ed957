"""Measurement instrumentation.

The paper's Table 1 reports per-protocol *latency in message delays*,
*persistent storage*, and *communicated bits*.  This module is the
single place where those quantities are accounted for:

* :class:`MessageMetrics` — counts and byte totals of sent / delivered /
  dropped messages, per sender and per message type;
* :class:`LatencyMetrics` — per-node decision times and view-change
  timestamps, convertible to "message delays" by dividing by δ;
* :class:`StorageMetrics` — the peak and the distinct persistent-state
  sizes per node, used to demonstrate the constant-storage claim.

The collectors are deliberately dumb containers: protocol code pushes
facts in, the evaluation layer pulls aggregates out.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field


def estimate_wire_size(value: object) -> int:
    """Best-effort serialized size of a message, in bytes.

    A value at any nesting level may implement ``wire_size() -> int``
    (the PBFT view-change and pre-proposal rounds do: their modelled
    O(n) payloads are the point of the Table 1 comparison).  Otherwise
    we charge 8 bytes per number and recurse into containers — a crude
    but growth-accurate estimator: what the evaluation fits is the
    *exponent* of bytes-vs-n curves, not absolute constants.
    """
    size_fn = getattr(value, "wire_size", None)
    if callable(size_fn):
        return int(size_fn())
    if value is None:
        return 1
    if isinstance(value, (bool, int, float)):
        return 8
    if isinstance(value, (str, bytes)):
        return max(1, len(value))
    if isinstance(value, (tuple, list, frozenset, set)):
        return sum(estimate_wire_size(item) for item in value)
    if isinstance(value, dict):
        # Both sides of every entry travel on the wire; flat-charging a
        # scalar here would undercount dict-carrying messages.
        return sum(
            estimate_wire_size(key) + estimate_wire_size(item) for key, item in value.items()
        )
    if hasattr(value, "__dataclass_fields__"):
        fields = value.__dataclass_fields__  # type: ignore[attr-defined]
        return sum(estimate_wire_size(getattr(value, name)) for name in fields)
    return 8


@dataclass
class MessageMetrics:
    """Message- and byte-count accounting for one simulation run.

    ``enabled`` is a cheap gate the network hot path consults before
    each record call; pure-throughput runs flip it off to skip the
    wire-size estimation entirely.  :meth:`record_broadcast` is the
    batched form of :meth:`record_send` for n identical copies of one
    message: the wire size is estimated once and multiplied, producing
    counter totals identical to n individual ``record_send`` calls.

    Aggregated envelopes (anything exposing ``logical_messages()``,
    e.g. :class:`~repro.multishot.messages.VoteBatch`) are expanded to
    their payloads before accounting, so the Table 1 per-type message
    and byte counts measure *logical* protocol traffic and stay
    comparable whether or not the message plane batches frames.  The
    frame-level view lives in the network's ``frames_sent`` /
    ``messages_sent`` counters instead.
    """

    sent_count: Counter = field(default_factory=Counter)
    delivered_count: Counter = field(default_factory=Counter)
    dropped_count: Counter = field(default_factory=Counter)
    bytes_sent_by_node: Counter = field(default_factory=Counter)
    bytes_by_type: Counter = field(default_factory=Counter)
    count_by_type: Counter = field(default_factory=Counter)
    enabled: bool = True

    def record_send(self, sender: int, message: object) -> None:
        self.record_broadcast(sender, message, 1)

    def record_broadcast(self, sender: int, message: object, copies: int) -> None:
        expand = getattr(message, "logical_messages", None)
        if expand is None:
            self._record(sender, message, copies)
        else:
            for item in expand():
                self._record(sender, item, copies)

    def _record(self, sender: int, message: object, copies: int) -> None:
        size = estimate_wire_size(message)
        type_name = type(message).__name__
        self.sent_count[sender] += copies
        self.bytes_sent_by_node[sender] += size * copies
        self.bytes_by_type[type_name] += size * copies
        self.count_by_type[type_name] += copies

    def record_delivery(self, sender: int) -> None:
        self.delivered_count[sender] += 1

    def record_drop(self, sender: int) -> None:
        self.dropped_count[sender] += 1

    @property
    def total_messages_sent(self) -> int:
        return sum(self.sent_count.values())

    @property
    def total_bytes_sent(self) -> int:
        return sum(self.bytes_sent_by_node.values())

    def max_bytes_per_node(self) -> int:
        return max(self.bytes_sent_by_node.values(), default=0)


@dataclass
class LatencyMetrics:
    """Decision / view-change timing for one simulation run."""

    decision_times: dict[int, float] = field(default_factory=dict)
    decision_values: dict[int, object] = field(default_factory=dict)
    view_entry_times: dict[int, list[tuple[int, float]]] = field(
        default_factory=lambda: defaultdict(list)
    )

    def record_decision(self, node: int, value: object, time: float) -> None:
        # Keep the *first* decision only; a correct protocol never
        # changes its mind, and tests assert exactly that elsewhere.
        self.decision_times.setdefault(node, time)
        self.decision_values.setdefault(node, value)

    def record_view_entry(self, node: int, view: int, time: float) -> None:
        self.view_entry_times[node].append((view, time))

    def all_decided(self, node_ids: list[int] | None = None) -> bool:
        if node_ids is None:
            return bool(self.decision_times)
        return all(node in self.decision_times for node in node_ids)

    def max_decision_time(self) -> float:
        if not self.decision_times:
            raise ValueError("no decisions recorded")
        return max(self.decision_times.values())

    def decided_values(self) -> set[object]:
        return set(self.decision_values.values())


@dataclass
class StorageMetrics:
    """Persistent-storage sizes reported over a run (constant-storage claim).

    Nodes report after every vote, so a run's reports grow with its
    length.  Only what the claim reads is kept: per node, the peak and
    the set of distinct sizes reported.
    """

    peak: dict[int, int] = field(default_factory=dict)
    sizes: dict[int, set[int]] = field(default_factory=lambda: defaultdict(set))

    def record(self, node: int, size_bytes: int) -> None:
        sizes = self.sizes[node]
        if size_bytes not in sizes:
            sizes.add(size_bytes)
            if size_bytes > self.peak.get(node, 0):
                self.peak[node] = size_bytes

    def max_storage(self, node: int | None = None) -> int:
        if node is not None:
            return self.peak.get(node, 0)
        return max(self.peak.values(), default=0)


@dataclass
class RunMetrics:
    """Bundle of all collectors for a single simulation run."""

    messages: MessageMetrics = field(default_factory=MessageMetrics)
    latency: LatencyMetrics = field(default_factory=LatencyMetrics)
    storage: StorageMetrics = field(default_factory=StorageMetrics)
