"""Unit and property tests for the quorum-system substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, QuorumSystemError
from repro.quorums import (
    FBAQuorumSystem,
    SliceConfig,
    ThresholdQuorumSystem,
    quorums_intersect,
    validate_fba_system,
)


class TestThresholdQuorumSystem:
    def test_canonical_4_node_system(self):
        qs = ThresholdQuorumSystem.for_nodes(4)
        assert qs.f == 1
        assert qs.quorum_size() == 3
        assert qs.blocking_size() == 2

    def test_quorum_membership(self):
        qs = ThresholdQuorumSystem.for_nodes(4)
        assert qs.is_quorum({0, 1, 2})
        assert qs.is_quorum({0, 1, 2, 3})
        assert not qs.is_quorum({0, 1})

    def test_blocking_membership(self):
        qs = ThresholdQuorumSystem.for_nodes(4)
        assert qs.is_blocking({1, 3})
        assert not qs.is_blocking({2})

    def test_unknown_members_do_not_count(self):
        qs = ThresholdQuorumSystem.for_nodes(4)
        assert not qs.is_quorum({0, 1, 99, 100})
        assert not qs.is_blocking({77, 99})

    def test_explicit_f_below_max(self):
        qs = ThresholdQuorumSystem.for_nodes(10, f=2)
        assert qs.quorum_size() == 8
        assert qs.blocking_size() == 3

    def test_rejects_insufficient_n(self):
        with pytest.raises(ConfigurationError):
            ThresholdQuorumSystem.for_nodes(3, f=1)

    def test_rejects_negative_f(self):
        with pytest.raises(ConfigurationError):
            ThresholdQuorumSystem.for_nodes(4, f=-1)

    def test_f_zero_still_works(self):
        qs = ThresholdQuorumSystem.for_nodes(1, f=0)
        assert qs.is_quorum({0})
        assert qs.is_blocking({0})

    def test_closed_form_intersection(self):
        assert quorums_intersect(ThresholdQuorumSystem.for_nodes(7))

    @given(n=st.integers(1, 40))
    def test_max_f_satisfies_resilience(self, n):
        qs = ThresholdQuorumSystem.for_nodes(n)
        assert qs.n > 3 * qs.f

    @given(n=st.integers(4, 30), data=st.data())
    @settings(max_examples=60)
    def test_two_quorums_intersect_in_honest_node(self, n, data):
        """Quorum intersection: |Q1 ∩ Q2| > f for any two quorums."""
        qs = ThresholdQuorumSystem.for_nodes(n)
        members = sorted(qs.nodes)
        q1 = data.draw(st.sets(st.sampled_from(members), min_size=qs.quorum_size()))
        q2 = data.draw(st.sets(st.sampled_from(members), min_size=qs.quorum_size()))
        assert len(q1 & q2) >= qs.f + 1

    @given(n=st.integers(4, 30), data=st.data())
    @settings(max_examples=60)
    def test_blocking_set_intersects_every_quorum(self, n, data):
        qs = ThresholdQuorumSystem.for_nodes(n)
        members = sorted(qs.nodes)
        blocking = data.draw(st.sets(st.sampled_from(members), min_size=qs.blocking_size()))
        quorum = data.draw(st.sets(st.sampled_from(members), min_size=qs.quorum_size()))
        assert blocking & quorum

    @given(n=st.integers(1, 16), data=st.data())
    @settings(max_examples=200)
    def test_thresholds_match_the_intersection_definition(self, n, data):
        """``is_quorum``/``is_blocking`` answer exactly "at least n − f /
        f + 1 distinct system nodes", however the ids arrive: duplicates,
        ids outside the system, sets, mappings, iterators."""
        f = data.draw(st.integers(0, (n - 1) // 3))
        qs = ThresholdQuorumSystem.for_nodes(n, f)
        ids = data.draw(st.lists(st.integers(-3, n + 3), max_size=3 * n))
        distinct = len(set(range(n)) & set(ids))
        shapes = (list, tuple, set, frozenset, dict.fromkeys, iter, lambda xs: (x for x in xs))
        for shape in shapes:
            assert qs.is_quorum(shape(ids)) is (distinct >= n - f)
            assert qs.is_blocking(shape(ids)) is (distinct >= f + 1)

class TestFBAQuorumSystem:
    def _tier_system(self) -> FBAQuorumSystem:
        """Four nodes, each trusting any 2 of the other 3 (≅ 3f+1, f=1)."""
        peers = range(4)
        return FBAQuorumSystem.from_slices([SliceConfig.threshold(i, peers, k=2) for i in peers])

    def test_threshold_slices_match_classic_quorums(self):
        fba = self._tier_system()
        assert fba.is_quorum({0, 1, 2})
        assert not fba.is_quorum({0, 1})
        assert fba.quorum_size() == 3

    def test_blocking_sets(self):
        fba = self._tier_system()
        assert fba.is_blocking({0, 1})
        assert not fba.is_blocking({3})
        assert fba.blocking_size() == 2

    def test_validate_accepts_intersecting_system(self):
        validate_fba_system(self._tier_system())

    def test_validate_rejects_disjoint_quorums(self):
        # Two cliques that trust only themselves: disjoint quorums.
        group_a = [SliceConfig.threshold(i, [0, 1, 2], k=2) for i in (0, 1, 2)]
        group_b = [SliceConfig.threshold(i, [3, 4, 5], k=2) for i in (3, 4, 5)]
        fba = FBAQuorumSystem.from_slices(group_a + group_b)
        with pytest.raises(QuorumSystemError, match="disjoint"):
            validate_fba_system(fba)

    def test_heterogeneous_slices(self):
        """A core of mutually-trusting nodes plus a leaf trusting the core."""
        core = [SliceConfig.threshold(i, [0, 1, 2], k=2) for i in (0, 1, 2)]
        leaf = SliceConfig(node=3, slices=frozenset([frozenset({0, 1, 3}), frozenset({1, 2, 3})]))
        fba = FBAQuorumSystem.from_slices(core + [leaf])
        # The core alone is a quorum; the leaf joins it but cannot form
        # one without core members.
        assert fba.is_quorum({0, 1, 2})
        assert not fba.is_quorum({3})
        assert fba.is_quorum({0, 1, 2, 3})

    def test_quorum_closure_discards_unsatisfied_members(self):
        fba = self._tier_system()
        # {0,1,2,99}: unknown member is ignored, closure is {0,1,2}.
        assert fba.is_quorum({0, 1, 2, 99})

    def test_empty_system_rejected(self):
        with pytest.raises(QuorumSystemError):
            FBAQuorumSystem.from_slices([])

    def test_slices_always_include_declaring_node(self):
        cfg = SliceConfig(node=0, slices=frozenset([frozenset({1, 2})]))
        normalized = cfg.normalized()
        assert all(0 in s for s in normalized.slices)

    def test_threshold_k_out_of_range(self):
        with pytest.raises(QuorumSystemError):
            SliceConfig.threshold(0, [0, 1], k=5)

    def test_minimal_quorums_are_minimal(self):
        fba = self._tier_system()
        for quorum in fba.minimal_quorums:
            for member in quorum:
                shrunk = quorum - {member}
                assert not fba._quorum_closure(shrunk) == shrunk or not shrunk
