"""Unit tests for the fixed-boundary power-of-two histogram."""

import pytest

from repro.obs.hist import Histogram


class TestBuckets:
    def test_zero_has_its_own_bucket(self):
        h = Histogram.from_values([0, 0, 0])
        assert h.buckets() == {0: 3}
        assert h.percentile(50) == 0
        assert h.percentile(99) == 0

    def test_bucket_boundaries_are_powers_of_two(self):
        # Buckets cover [2**(i-1), 2**i - 1], keyed by upper bound.
        h = Histogram.from_values([1, 2, 3, 4, 7, 8])
        assert h.buckets() == {1: 1, 3: 2, 7: 2, 15: 1}

    def test_negative_values_are_rejected(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.record(-1)

    def test_large_values_fit(self):
        h = Histogram.from_values([2**60])
        assert h.count == 1
        assert h.percentile(50) == 2**60  # clamped to observed max


class TestPercentiles:
    def test_empty_histogram_reports_zeros(self):
        h = Histogram()
        assert h.percentiles() == {"p50": 0, "p90": 0, "p99": 0}

    def test_nearest_rank_within_bucket_upper_bound(self):
        # [2, 3] both land in bucket 2 (upper bound 3): p50 = p99 = 3.
        h = Histogram.from_values([2, 3])
        assert h.percentile(50) == 3
        assert h.percentile(99) == 3

    def test_clamps_to_observed_maximum(self):
        # 5 lands in bucket 3 (upper bound 7) but the histogram never
        # reports a percentile above the largest recorded value.
        h = Histogram.from_values([5])
        assert h.percentile(99) == 5

    def test_percentile_rejects_out_of_domain_requests(self):
        h = Histogram.from_values([1, 2, 3])
        for percentile in (0, -1, 100.1):
            with pytest.raises(ValueError, match=r"\(0, 100\]"):
                h.percentile(percentile)

    def test_percentile_of_an_empty_histogram_raises(self):
        with pytest.raises(ValueError, match="empty"):
            Histogram().percentile(50)

    def test_rank_selection_across_buckets(self):
        h = Histogram.from_values([1] * 98 + [100, 100])
        assert h.percentile(50) == 1
        assert h.percentile(98) == 1
        assert h.percentile(99) == 100

    def test_min_max_sum_count(self):
        h = Histogram.from_values([4, 9, 1])
        assert (h.count, h.total, h.min, h.max) == (3, 14, 1, 9)


class TestMergeAndSerialization:
    def test_merge_is_elementwise_addition(self):
        a = Histogram.from_values([1, 2, 3])
        b = Histogram.from_values([3, 100])
        a.merge(b)
        assert a.count == 5
        assert a.total == 109
        assert a.min == 1
        assert a.max == 100
        c = Histogram.from_values([1, 2, 3, 3, 100])
        assert a.buckets() == c.buckets()

    def test_merge_empty_is_identity(self):
        a = Histogram.from_values([7])
        before = a.to_dict()
        a.merge(Histogram())
        assert a.to_dict() == before

    def test_merged_percentiles_equal_pooled_percentiles(self):
        # Determinism under sharding: merging per-worker histograms
        # must give the same answers as one histogram over all values.
        shard1, shard2 = [3, 17, 17, 256], [0, 1, 1, 9000]
        a = Histogram.from_values(shard1)
        a.merge(Histogram.from_values(shard2))
        pooled = Histogram.from_values(shard1 + shard2)
        assert a.percentiles() == pooled.percentiles()
        assert a.to_dict() == pooled.to_dict()

    def test_to_dict_shape(self):
        d = Histogram.from_values([2, 3]).to_dict()
        assert d["count"] == 2
        assert d["sum"] == 5
        assert d["min"] == 2 and d["max"] == 3
        assert d["p50"] == 3 and d["p99"] == 3
        assert d["buckets"] == {"3": 2}  # upper-bound keys, JSON-friendly
