"""Simulated clock: time moves only forward, and only when told to."""

import pytest

from citykit.clock import SimulatedClock


def test_a_simulated_clock_moves_forward_only():
    clock = SimulatedClock(100.0)
    assert clock.advance(5) == clock.now() == 105.0
    assert clock.set(105) == 105.0
    with pytest.raises(ValueError, match="cannot advance a clock backwards"):
        clock.advance(-1)
    with pytest.raises(ValueError, match="clock moving backwards: 104.5 < 105.0"):
        clock.set(104.5)
    assert clock.now() == 105.0
