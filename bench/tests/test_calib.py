import pytest

from bench.calib import INTERVAL_S, MIN_SAMPLES, REFERENCE_S, Calibrator


def fake(calibrator, durations):
    calibrator.times = [float(i + 1) for i in range(len(durations))]
    calibrator.durations = [REFERENCE_S * d for d in durations]


def test_slowness_is_median_duration_over_reference():
    calibrator = Calibrator()
    fake(calibrator, [1, 1, 1, 2, 2, 2, 3, 3])
    assert calibrator.slowness(0.0, 10.0) == pytest.approx(2.0)
    assert calibrator.slowness(0.5, 5.5) == pytest.approx(1.0)


def test_a_short_interval_is_widened_to_its_nearest_samples():
    calibrator = Calibrator()
    fake(calibrator, [1, 1, 1, 2, 2, 2, 3, 3])
    # Nothing inside [4.4, 4.6]: the five nearest samples (at 3..7) decide.
    assert MIN_SAMPLES == 5
    assert calibrator.slowness(4.4, 4.6) == pytest.approx(2.0)
    assert calibrator.slowness(-5.0, -4.0) == pytest.approx(1.0)
    assert Calibrator().slowness(0.0, 1.0) == 1.0  # no samples at all


def test_tick_samples_at_most_once_per_interval():
    calibrator = Calibrator()
    assert calibrator.tick() > 0.0
    assert calibrator.tick() == 0.0  # not due again yet
    calibrator._due -= 2 * INTERVAL_S
    assert calibrator.tick() > 0.0
    assert len(calibrator.durations) == 2
    calibrator.burst(3)
    assert len(calibrator.durations) == 5


def test_slowness_at_follows_a_slow_spell():
    calibrator = Calibrator()
    # A sample every 0.1 s for 4 s; the host is twice as slow from 2 s on.
    calibrator.times = [0.1 * (i + 1) for i in range(40)]
    calibrator.durations = [REFERENCE_S * (1 if i < 20 else 2) for i in range(40)]
    assert calibrator.slowness_at(1.0) == pytest.approx(1.0)
    assert calibrator.slowness_at(3.0) == pytest.approx(2.0)
    # One slowness for the whole stretch would have called it 1.5.
    assert calibrator.slowness(0.0, 4.0) == pytest.approx(1.5)


def test_normalised_weighs_each_step_by_the_slowness_at_its_end():
    calibrator = Calibrator()
    calibrator.times = [0.1 * (i + 1) for i in range(40)]
    calibrator.durations = [REFERENCE_S * (1 if i < 20 else 2) for i in range(40)]
    # 1 s of CPU in the fast half, 1 s in the slow half: 1 + 1/2.
    readings = [(0.5, 10.0), (1.5, 11.0), (2.55, 11.0), (3.5, 12.0)]
    assert calibrator.normalised(readings) == pytest.approx(1.5)
    # Elapsed time likewise: 1 s fast + 1 s slow (the slices that straddle
    # the change are weighed by the median around their end).
    assert calibrator.normalised_seconds(1.0, 3.0) == pytest.approx(1.5, abs=0.1)
