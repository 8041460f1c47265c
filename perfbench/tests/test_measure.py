import pytest

import measure


@pytest.mark.parametrize("n, expected", [
    (0, None), (1, None), (19, None),
    (20, 50.0), (99, 50.0),
    (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0),
    (10000, 99.9), (10 ** 6, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert measure.tail_percentile(n) == expected
    if expected is not None:
        assert round(n * (100 - expected) / 100, 9) >= measure.TAIL_MIN


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 90) == 90
    assert measure.percentile(values, 99) == 99
    assert measure.percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_tail_reports_the_supported_percentile_and_its_value():
    values = [float(v) for v in range(1000, 0, -1)]  # unsorted on purpose
    assert measure.tail(values) == (99.0, 990.0)
    assert measure.tail(values[:19]) == (None, None)


def test_describe_states_the_sample_count():
    assert measure.describe([1.0, 2.0, 3.0]).endswith("(n=3)")
    assert "no tail percentile" in measure.describe([1.0, 2.0, 3.0])
    text = measure.describe([float(v) for v in range(100)])
    assert "p90" in text and text.endswith("(n=100)")
    assert measure.describe([]) == "n/a (n=0)"


def test_spread_is_interquartile_distance_over_median():
    assert measure.spread([10.0] * 5) == 0.0
    assert measure.spread([1.0]) == 0.0
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    q1, q3 = 8.5, 11.5  # statistics.quantiles(..., n=4), exclusive
    assert measure.spread(values) == pytest.approx((q3 - q1) / 10.0)
