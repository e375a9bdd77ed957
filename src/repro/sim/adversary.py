"""Adversarial network schedulers.

Partial synchrony grants the adversary full control of message delivery
before GST and delay control (up to Δ) after it.  These policies let
tests and benches exercise exactly that power deterministically:

* :class:`TargetedDropPolicy` — drop messages matching a predicate
  (e.g. silence a leader's proposals) during a time window;
* :class:`PartitionPolicy` — partition the node set until a heal time;
* :class:`SkewedDelays` — per-link delays chosen adversarially within
  ``[delta_min, delta]``, used by the 9Δ-timeout ablation to create
  the worst-case 2Δ view-entry skew the paper's timeout analysis
  assumes;
* :class:`ScriptedPolicy` — fully scripted per-message fates for
  regression tests that need exact schedules;
* :class:`CrashRecoveryPolicy` — nodes go down and come back on a
  deterministic schedule; messages touching a down node are dropped.
  Used by the scaling evaluation's churn scenario.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.sim.network import DelayPolicy

MessagePredicate = Callable[[float, int, int, object], bool]


@dataclass
class TargetedDropPolicy(DelayPolicy):
    """Drop messages matching ``should_drop`` inside ``[start, end)``.

    Everything else is delegated to ``base`` so the surrounding network
    behaves normally.  Used to crash-fault leaders, censor specific
    message types, or suppress votes from chosen nodes.
    """

    base: DelayPolicy
    should_drop: MessagePredicate
    start: float = 0.0
    end: float = float("inf")

    def delay(self, send_time: float, src: int, dst: int, message: object) -> float | None:
        in_window = self.start <= send_time < self.end
        if in_window and self.should_drop(send_time, src, dst, message):
            return None
        return self.base.delay(send_time, src, dst, message)


def silence_nodes(node_ids: Iterable[int]) -> MessagePredicate:
    """Predicate dropping every message *sent by* the given nodes (crash)."""
    silenced = frozenset(node_ids)

    def predicate(send_time: float, src: int, dst: int, message: object) -> bool:
        del send_time, dst, message
        return src in silenced

    return predicate


def censor_types(*type_names: str) -> MessagePredicate:
    """Predicate dropping messages whose class name is in ``type_names``."""
    censored = frozenset(type_names)

    def predicate(send_time: float, src: int, dst: int, message: object) -> bool:
        del send_time, src, dst
        return type(message).__name__ in censored

    return predicate


@dataclass
class PartitionPolicy(DelayPolicy):
    """Messages crossing between groups are dropped until ``heal_time``.

    ``groups`` is a list of disjoint node sets; nodes absent from every
    group form an implicit final group.  After ``heal_time`` all
    traffic flows through ``base`` untouched — the moment the paper
    would call GST.
    """

    base: DelayPolicy
    groups: list[frozenset[int]]
    heal_time: float

    def _group_of(self, node: int) -> int:
        for index, group in enumerate(self.groups):
            if node in group:
                return index
        return len(self.groups)

    def delay(self, send_time: float, src: int, dst: int, message: object) -> float | None:
        if send_time < self.heal_time and self._group_of(src) != self._group_of(dst):
            return None
        return self.base.delay(send_time, src, dst, message)


@dataclass
class SkewedDelays(DelayPolicy):
    """Adversarial within-bound delays: per-destination fixed delays.

    After GST the adversary may still choose any delay in
    ``(0, delta]`` per message.  This policy gives destination ``d``
    the delay ``delta_for.get(d, delta)``, creating the maximal skew in
    when nodes observe quorums — the scenario behind the paper's 9Δ
    timeout budget (2Δ view-entry skew + 6Δ protocol phases).
    """

    delta: float = 1.0
    delta_for: dict[int, float] = field(default_factory=dict)

    def delay(self, send_time: float, src: int, dst: int, message: object) -> float | None:
        del send_time, src, message
        chosen = self.delta_for.get(dst, self.delta)
        return min(chosen, self.delta)


@dataclass
class CrashRecoveryPolicy(DelayPolicy):
    """Crash/recovery link faults on a deterministic schedule.

    ``downtime`` maps a node id to a list of half-open ``[start, end)``
    intervals during which that node is crashed.  A message whose
    sender *or* receiver is down at send time is dropped; everything
    else is delegated to ``base``.  (Messages already in flight when
    the receiver crashes still deliver — the model charges the fault to
    the link at send time, which keeps the policy stateless and the
    schedule a pure function of its inputs.)

    :meth:`periodic` builds the common churn scenario: each listed node
    crashes for ``outage`` time units every ``period``, optionally
    staggered so the crashes roll through the cluster instead of
    striking simultaneously.
    """

    base: DelayPolicy
    downtime: dict[int, list[tuple[float, float]]]

    def __post_init__(self) -> None:
        for node, intervals in self.downtime.items():
            for start, end in intervals:
                if not start < end:
                    raise ConfigurationError(
                        f"node {node}: downtime interval ({start}, {end}) is empty"
                    )

    @classmethod
    def periodic(
        cls,
        base: DelayPolicy,
        node_ids: Iterable[int],
        period: float,
        outage: float,
        horizon: float,
        stagger: float = 0.0,
        start: float = 0.0,
    ) -> "CrashRecoveryPolicy":
        """Rolling outages: node k is down during
        ``[start + k*stagger + i*period, … + outage)`` for every cycle
        ``i`` up to ``horizon``."""
        if period <= 0:
            raise ConfigurationError(f"period must be positive, got {period}")
        if outage <= 0:
            raise ConfigurationError(f"outage must be positive, got {outage}")
        if outage >= period:
            # Overlapping cycles would keep the node down for the whole
            # horizon — a crash with no recovery, not a churn schedule.
            raise ConfigurationError(
                f"outage must be shorter than period, got outage={outage} "
                f"period={period} (the node would never recover)"
            )
        downtime: dict[int, list[tuple[float, float]]] = {}
        for index, node in enumerate(sorted(node_ids)):
            phase = start + index * stagger
            intervals = []
            begin = phase
            while begin < horizon:
                intervals.append((begin, begin + outage))
                begin += period
            downtime[node] = intervals
        return cls(base=base, downtime=downtime)

    def is_down(self, node: int, time: float) -> bool:
        for start, end in self.downtime.get(node, ()):
            if start <= time < end:
                return True
        return False

    def delay(self, send_time: float, src: int, dst: int, message: object) -> float | None:
        if self.is_down(src, send_time) or self.is_down(dst, send_time):
            return None
        return self.base.delay(send_time, src, dst, message)


@dataclass
class ScriptedPolicy(DelayPolicy):
    """Consume per-message fates from an explicit script.

    ``script`` maps ``(src, dst, type_name, occurrence_index)`` to a
    delay or ``None`` (drop).  Unscripted messages fall through to
    ``base``.  Deterministic by construction; used in regression tests
    that pin exact interleavings.
    """

    base: DelayPolicy
    script: dict[tuple[int, int, str, int], float | None]
    _occurrences: dict[tuple[int, int, str], int] = field(default_factory=dict)

    def delay(self, send_time: float, src: int, dst: int, message: object) -> float | None:
        key3 = (src, dst, type(message).__name__)
        index = self._occurrences.get(key3, 0)
        self._occurrences[key3] = index + 1
        key = (*key3, index)
        if key in self.script:
            return self.script[key]
        return self.base.delay(send_time, src, dst, message)
