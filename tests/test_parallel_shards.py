"""Tests for shard planning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.parallel import Shard, ShardPlan


class TestSplit:
    def test_preserves_order_and_total(self):
        plan = ShardPlan.split(list(range(10)), 3)
        assert plan.total == 10
        assert plan.n_shards == 3
        flat = [i for s in plan.shards for i in s.items]
        assert flat == list(range(10))

    def test_contiguous_starts(self):
        plan = ShardPlan.split(list("abcdefg"), 3)
        for shard in plan.shards:
            assert shard.start == sum(
                len(s) for s in plan.shards[:shard.index])

    def test_balanced_within_one(self):
        plan = ShardPlan.split(list(range(11)), 4)
        sizes = [len(s) for s in plan.shards]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 11

    def test_more_shards_than_items_collapses(self):
        plan = ShardPlan.split([1, 2, 3], 10)
        assert plan.n_shards == 3
        assert all(len(s) == 1 for s in plan.shards)

    def test_empty_items_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardPlan.split([], 2)

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardPlan.split([1], 0)

    @given(n_items=st.integers(1, 200), n_shards=st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n_items, n_shards):
        plan = ShardPlan.split(list(range(n_items)), n_shards)
        flat = [i for s in plan.shards for i in s.items]
        assert flat == list(range(n_items))
        sizes = [len(s) for s in plan.shards]
        assert max(sizes) - min(sizes) <= 1


class TestRange:
    def test_counts_tile_budget(self):
        plan = ShardPlan.for_range(1000, 3)
        ranges = [s.items[0] for s in plan.shards]
        assert sum(c for _, c in ranges) == 1000
        # Contiguous: each start is the previous end.
        for (s0, c0), (s1, _) in zip(ranges, ranges[1:]):
            assert s1 == s0 + c0

    def test_budget_smaller_than_shards(self):
        plan = ShardPlan.for_range(2, 8)
        assert plan.n_shards == 2

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardPlan.for_range(0, 2)


class TestShard:
    def test_shard_len(self):
        assert len(Shard(index=0, start=0, items=(1, 2, 3))) == 3
