"""Unit tests for energy accounting and the EV battery."""

import pytest

from repro.hw import EnergyMeter, EVBattery, ProcessorKind, ProcessorModel


def _proc(watts=100.0):
    return ProcessorModel(name="p", kind=ProcessorKind.CPU, peak_gops=10, tdp_watts=watts)


def test_energy_meter_accumulates_busy_joules():
    meter = EnergyMeter()
    proc = _proc(watts=100.0)
    meter.record_busy(proc, 2.0)
    meter.record_busy(proc, 1.0)
    assert meter.busy_joules("p") == pytest.approx(300.0)
    assert meter.busy_joules() == pytest.approx(300.0)
    assert meter.busy_seconds("p") == pytest.approx(3.0)


def test_energy_meter_negative_time_raises():
    with pytest.raises(ValueError):
        EnergyMeter().record_busy(_proc(), -1.0)


def test_battery_range_cost():
    battery = EVBattery(drive_efficiency_wh_per_km=160.0)
    # A 250 W GPU for an hour: 250 Wh -> ~1.56 km of range.
    assert battery.range_cost_km(250.0 * 3600.0) == pytest.approx(250.0 / 160.0)
