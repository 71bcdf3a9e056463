"""The reference clock: reference seconds, stopped while a unit runs."""

import time

import pytest

from benchmarks.e2e import hostspeed


def test_clock_divides_host_seconds_by_the_factor():
    nominal = [hostspeed.NOMINAL_UNIT_MS] * 4
    slow = hostspeed.Clock([2 * hostspeed.NOMINAL_UNIT_MS] * 4, every_s=60)
    even = hostspeed.Clock(nominal, every_s=60)
    time.sleep(0.2)
    assert even.now() == pytest.approx(0.2, rel=0.1)
    assert slow.now() == pytest.approx(0.1, rel=0.1)
    assert slow.host_seconds(1.0) == pytest.approx(2.0)
    assert slow.mean_factor() == pytest.approx(2.0, rel=0.05)


def test_clock_stops_while_a_unit_runs_and_rereads_the_factor():
    clock = hostspeed.Clock([hostspeed.NOMINAL_UNIT_MS] * 4, every_s=0.0)
    before = clock.now()
    clock.tick()
    clock.tick()
    assert len(clock.unit_ms) == 2
    assert clock.paused_s >= sum(clock.unit_ms) / 1e3 * 0.99
    # Two units took tens of milliseconds; the clock saw almost none of it.
    assert clock.now() - before < clock.paused_s / 5
    assert clock.host_elapsed() < clock.paused_s / 5


def test_no_unit_before_one_is_due():
    clock = hostspeed.Clock([hostspeed.NOMINAL_UNIT_MS], every_s=60)
    clock.tick()
    assert clock.unit_ms == [] and clock.unit_due() > 59
