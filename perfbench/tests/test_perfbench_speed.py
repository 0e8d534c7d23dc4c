"""Scaling measured intervals to reference speed (speed.py)."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "perfbench")]

import speed  # noqa: E402


def with_probes(*probes):
    s = speed.Speed()
    s.probes = list(probes)
    return s


def test_an_interval_is_scaled_by_reference_over_kernel_time():
    ref = speed.REFERENCE_SECONDS["service"]
    s = with_probes((0.0, 1.0, 2 * ref), (10.0, 11.0, 2 * ref))
    assert s.scale(2.0, 6.0) == pytest.approx(2.0)  # the machine ran at half speed


def test_probes_inside_an_interval_are_left_out():
    ref = speed.REFERENCE_SECONDS["service"]
    s = with_probes((0.0, 1.0, ref), (4.0, 5.0, ref), (10.0, 11.0, ref))
    assert s.scale(2.0, 8.0) == pytest.approx(5.0)


def test_the_factor_follows_the_kernel_between_probes():
    ref = speed.REFERENCE_SECONDS["service"]
    s = with_probes((0.0, 0.0, ref), (10.0, 10.0, 2 * ref))
    assert s.scale(0.0, 0.001) == pytest.approx(0.001, rel=1e-3)
    assert s.scale(9.999, 10.0) == pytest.approx(0.0005, rel=1e-3)
    assert s.scale(20.0, 21.0) == pytest.approx(0.5)  # after the last probe, its speed


@pytest.mark.parametrize("kind", sorted(speed.REFERENCE_SECONDS))
def test_a_probe_times_the_kernel(kind):
    s = speed.Speed(kind)
    seconds = s.probe()
    start, end, kernel = s.probes[-1]
    assert kernel == seconds and 0 < kernel <= end - start
