import pytest

from stats import MIN_BEYOND, median, nearest_rank, slow_quarter, tail


def test_nearest_rank_counts_samples_beyond():
    values = list(range(1, 101))
    assert nearest_rank(values, 50.0) == (50, 50)
    assert nearest_rank(values, 90.0) == (90, 10)
    assert nearest_rank(values, 99.5) == (100, 0)
    assert nearest_rank([7], 75.0) == (7, 0)
    with pytest.raises(ValueError):
        nearest_rank([], 50.0)


@pytest.mark.parametrize(
    "n, percentile",
    [(20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (100000, 99.0)],
)
def test_tail_takes_highest_percentile_with_ten_beyond(n, percentile):
    samples = [float(i) for i in range(n, 0, -1)]  # order must not matter
    q, value, beyond = tail(samples)
    assert q == percentile
    assert beyond >= MIN_BEYOND
    assert beyond == sum(1 for s in samples if s > value)


def test_tail_falls_back_to_median_rank_when_too_few_samples():
    q, value, beyond = tail([3.0, 1.0, 2.0])
    assert (q, value, beyond) == (50.0, 2.0, 1)


def test_median_averages_middle_pair():
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_slow_quarter_pools_the_slowest_quarter_in_run_order():
    # Eight windows of two; the quarter kept is the two with the highest sums.
    fast, slow = [1.0, 1.0], [5.0, 2.0]
    samples = fast * 2 + slow + fast * 3 + [2.0, 5.0] + fast
    assert slow_quarter(samples, 2) == [5.0, 2.0, 2.0, 5.0]


def test_slow_quarter_keeps_one_window_and_drops_the_partial_tail():
    assert slow_quarter([3.0, 1.0, 2.0, 1.0, 9.0], 2) == [3.0, 1.0]
    assert slow_quarter([1.0, 1.0, 9.0], 2) == [1.0, 1.0]


def test_slow_quarter_falls_back_to_the_whole_run_when_shorter_than_a_window():
    assert slow_quarter([2.0, 1.0], 8) == [2.0, 1.0]
    with pytest.raises(ValueError):
        slow_quarter([], 8)


def test_slow_quarter_breaks_ties_by_run_order():
    assert slow_quarter([1.0, 1.0, 1.0, 1.0], 1) == [1.0]
