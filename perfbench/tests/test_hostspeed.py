import time

import numpy as np
import pytest

from perfbench.hostspeed import NOMINAL_S, Sampler


def sampler_with(samples):
    """A sampler that never ran, holding ``(time, kernel time)`` samples."""
    s = Sampler()
    s.times = [t for t, _ in samples]
    s.samples = [cpu for _, cpu in samples]
    return s


def test_slowdown_is_the_median_kernel_time_in_the_interval_over_nominal():
    s = sampler_with([(1.0, 9 * NOMINAL_S), (2.0, NOMINAL_S), (3.0, 2 * NOMINAL_S),
                      (4.0, 4 * NOMINAL_S), (5.0, 9 * NOMINAL_S)])
    assert s.slowdown(2.0, 4.0) == pytest.approx(2.0)
    assert s.slowdown(1.5, 2.5) == pytest.approx(1.0)


def test_an_interval_without_samples_is_an_error():
    with pytest.raises(ValueError, match="no host-speed sample"):
        sampler_with([(1.0, NOMINAL_S)]).slowdown(1.5, 2.0)


def test_the_sampler_times_the_kernel_until_it_is_stopped():
    t0 = time.monotonic()
    with Sampler() as s:
        time.sleep(0.35)
    assert len(s.samples) >= 2
    assert all(t0 <= t <= time.monotonic() for t in s.times)
    assert 0 < s.slowdown(t0, time.monotonic()) < 100
    assert not s._thread.is_alive()


def test_a_window_is_scaled_slice_by_slice():
    # the host runs at nominal speed for 2 s, then twice as slow for 2 s
    samples = [(t / 10, (1 if t < 20 else 2) * NOMINAL_S) for t in range(41)]
    s = sampler_with(samples)
    done = np.array([0.5, 1.5, 2.5, 3.5])
    nominal_s, scaled = s.scale((0.0, 4.0), done, np.full(4, 0.010))
    assert nominal_s == pytest.approx(1 + 1 + 0.5 + 0.5)
    assert scaled == pytest.approx([0.010, 0.010, 0.005, 0.005])
