import numpy as np
import pytest

from perfbench.stats import bit_exact, percentile, samples_beyond, window_rate


def test_samples_beyond_counts_ranks_above_the_percentile():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(10, 50) == 5


def test_p90_needs_ten_samples_beyond_it():
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError, match="p90 needs 10"):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError, match="p99"):
        percentile(list(range(999)), 99)


def test_median_of_any_nonempty_sample():
    assert percentile([3.0], 50) == 3.0
    assert percentile([1.0, 2.0, 10.0, 4.0], 50) == 3.0
    with pytest.raises(ValueError, match="no samples"):
        percentile([], 50)


def test_bit_exact_accepts_identical_bits():
    golden = np.random.default_rng(0).random((8, 8), dtype=np.float32)
    assert bit_exact(golden.copy(), golden)


def test_bit_exact_catches_one_flipped_bit():
    golden = np.random.default_rng(0).random((8, 8), dtype=np.float32)
    result = golden.copy()
    result.view(np.uint32)[3, 5] ^= 1  # lowest mantissa bit of one cell
    assert not bit_exact(result, golden)


def test_bit_exact_tells_signed_zeros_apart():
    assert not bit_exact(
        np.array([-0.0], dtype=np.float32), np.array([0.0], dtype=np.float32)
    )


def test_bit_exact_rejects_missing_or_reshaped_or_widened_results():
    golden = np.zeros((4, 4), dtype=np.float32)
    assert not bit_exact(None, golden)
    assert not bit_exact(np.zeros((2, 8), dtype=np.float32), golden)
    assert not bit_exact(np.zeros((4, 4), dtype=np.float64), golden)


def test_window_rate_counts_every_completion_so_a_stall_lowers_it():
    assert window_rate(40, (0.0, 10.0)) == pytest.approx(4.0)
    # the same 40 completions squeezed into 5 of 10 s (a 5 s stall)
    assert window_rate(20, (0.0, 10.0)) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="empty window"):
        window_rate(5, (3.0, 3.0))


def test_p90_over_the_whole_window_sees_a_burst_in_a_few_percent():
    calm = np.tile(np.arange(1.0, 101.0), 20)  # p90 90.1
    assert percentile(calm, 90) == pytest.approx(90.1)
    burst = calm.copy()
    burst[:300] *= 10  # 15% of the window slowed tenfold
    assert percentile(burst, 90) > 200
