"""Quorum-system abstractions.

TetraBFT (Section 2 of the paper) defines, for ``n > 3f`` nodes:

* a **quorum** is any set of at least ``n - f`` nodes, and
* a **blocking set** is any set of at least ``f + 1`` nodes.

Protocol code never hard-codes those thresholds.  Instead it talks to a
:class:`QuorumSystem`, which answers two questions — "is this set of
witnesses a quorum?" and "is this set a blocking set?" — plus a couple
of structural queries.  This indirection is what lets the same node
state machines run over heterogeneous-trust systems (see
:mod:`repro.quorums.fba`), the adaptation the paper sketches in §1.2.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import ConfigurationError

NodeId = int


class QuorumSystem(ABC):
    """Answers quorum / blocking-set membership questions for one node.

    Implementations must be immutable and hashable so protocol state can
    safely share them.
    """

    @property
    @abstractmethod
    def nodes(self) -> frozenset[NodeId]:
        """All node identifiers known to this quorum system."""

    @abstractmethod
    def is_quorum(self, members: Iterable[NodeId]) -> bool:
        """Return ``True`` when ``members`` contains a quorum."""

    @abstractmethod
    def is_blocking(self, members: Iterable[NodeId]) -> bool:
        """Return ``True`` when ``members`` contains a blocking set.

        A blocking set intersects every quorum; equivalently it is a set
        the adversary cannot fully control, so a claim made by a full
        blocking set is vouched for by at least one well-behaved node.
        """

    @abstractmethod
    def quorum_size(self) -> int:
        """Minimum cardinality of a quorum (for sizing and metrics)."""

    @abstractmethod
    def blocking_size(self) -> int:
        """Minimum cardinality of a blocking set."""


@dataclass(frozen=True)
class ThresholdQuorumSystem(QuorumSystem):
    """The classic ``n > 3f`` threshold system used throughout the paper.

    Quorums are the sets of at least ``n - f`` nodes; blocking sets are
    the sets of at least ``f + 1`` nodes.

    >>> qs = ThresholdQuorumSystem.for_nodes(4, f=1)
    >>> qs.is_quorum({0, 1, 2})
    True
    >>> qs.is_blocking({3})
    False
    """

    node_set: frozenset[NodeId]
    f: int

    def __post_init__(self) -> None:
        n = len(self.node_set)
        if self.f < 0:
            raise ConfigurationError(f"f must be non-negative, got {self.f}")
        if n <= 3 * self.f:
            raise ConfigurationError(f"threshold quorum system needs n > 3f, got n={n}, f={self.f}")
        # The thresholds, fixed once: a vote path asks on every delivery.
        object.__setattr__(self, "_quorum_size", n - self.f)
        object.__setattr__(self, "_blocking_size", self.f + 1)

    @classmethod
    def for_nodes(cls, n: int, f: int | None = None) -> "ThresholdQuorumSystem":
        """Build the system over node ids ``0..n-1``.

        When ``f`` is omitted, the maximum tolerable ``f = (n - 1) // 3``
        is used (optimal resilience).
        """
        if n < 1:
            raise ConfigurationError(f"need at least one node, got n={n}")
        if f is None:
            f = (n - 1) // 3
        return cls(node_set=frozenset(range(n)), f=f)

    @property
    def n(self) -> int:
        """Total number of nodes."""
        return len(self.node_set)

    @property
    def nodes(self) -> frozenset[NodeId]:
        return self.node_set

    def quorum_size(self) -> int:
        return self._quorum_size

    def blocking_size(self) -> int:
        return self._blocking_size

    def is_quorum(self, members: Iterable[NodeId]) -> bool:
        return self._counts_at_least(members, self._quorum_size)

    def is_blocking(self, members: Iterable[NodeId]) -> bool:
        return self._counts_at_least(members, self._blocking_size)

    def _counts_at_least(self, members: Iterable[NodeId], size: int) -> bool:
        """Whether ``members`` names at least ``size`` distinct nodes of
        the system.  A collection with fewer entries than ``size`` holds
        fewer distinct nodes too, whatever the entries are, so it is
        rejected before any intersection is built."""
        try:
            if len(members) < size:
                return False
        except TypeError:  # an iterator has no length: intersect it
            pass
        return len(self.node_set.intersection(members)) >= size


def quorums_intersect(system: QuorumSystem) -> bool:
    """Check the quorum-intersection property for threshold systems.

    For a :class:`ThresholdQuorumSystem` this is a closed-form check:
    two sets of size ``n - f`` drawn from ``n`` nodes overlap in at
    least ``n - 2f`` nodes, which exceeds ``f`` precisely when
    ``n > 3f`` — so intersection always contains a well-behaved node.
    For other systems, callers should use the system's own validator
    (e.g. :func:`repro.quorums.fba.validate_fba_system`).
    """
    if isinstance(system, ThresholdQuorumSystem):
        return system.n > 3 * system.f
    raise NotImplementedError("closed-form intersection check only available for threshold systems")
