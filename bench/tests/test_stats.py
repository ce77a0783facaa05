import pytest

from bench import stats


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 99) == 99
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.samples_beyond(999, 99) == 9
    assert stats.supported_percentile(1000) == 99.0
    assert stats.supported_percentile(999) == 95.0
    assert stats.supported_percentile(200) == 95.0
    assert stats.supported_percentile(199) == 90.0
    assert stats.supported_percentile(50) == 50.0
    assert stats.supported_percentile(10_000) == 99.9


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 14.5)
    assert stats.spread([3.0]) == 0.0


def test_worse_by_follows_the_metric_direction():
    assert stats.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.worse_by(100.0, 80.0, "higher") == pytest.approx(0.20)
