"""Unit tests for the byte/rate/time helpers."""

import math

import pytest

from repro import units


def test_binary_units_are_powers_of_1024():
    assert units.KiB(1) == 1024
    assert units.MiB(1) == 1024 ** 2
    assert units.GiB(1) == 1024 ** 3
    assert units.TiB(2) == 2 * 1024 ** 4


def test_decimal_rates():
    assert units.MBps(530) == 530e6
    assert units.GBps(2) == 2e9


def test_gbps_converts_bits_to_bytes():
    assert units.Gbps(40) == pytest.approx(5e9)


def test_time_helpers():
    assert units.hours(2) == 7200
    assert units.minutes(3) == 180
    assert units.to_hours(7200) == pytest.approx(2.0)


def test_safe_div_normal_and_zero():
    assert units.safe_div(10, 4) == pytest.approx(2.5)
    assert units.safe_div(10, 0) == 0.0
    assert units.safe_div(10, 0, default=1.5) == 1.5


def test_speedup_is_baseline_over_improved():
    assert units.speedup(100.0, 50.0) == pytest.approx(2.0)
    assert units.speedup(100.0, 100.0) == pytest.approx(1.0)
    assert math.isinf(units.speedup(1.0, 0.0))
