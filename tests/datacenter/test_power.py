"""Tests for repro.datacenter.power — the linear power model."""

import numpy as np
import pytest

from repro.datacenter.power import LinearPowerModel


class TestLinearPowerModel:
    def test_idle_power(self):
        model = LinearPowerModel()
        assert model.power(0.0) == pytest.approx(93.7)

    def test_max_power(self):
        model = LinearPowerModel()
        assert model.power(1.0) == pytest.approx(135.0)

    def test_linear_midpoint(self):
        model = LinearPowerModel(idle_watts=100.0, max_watts=200.0)
        assert model.power(0.5) == pytest.approx(150.0)

    def test_monotonic(self):
        model = LinearPowerModel()
        powers = [model.power(u / 10) for u in range(11)]
        assert powers == sorted(powers)

    def test_energy_is_power_times_time(self):
        model = LinearPowerModel(idle_watts=100.0, max_watts=200.0)
        assert model.energy_joules(0.5, 10.0) == pytest.approx(1500.0)

    def test_energy_zero_time(self):
        assert LinearPowerModel().energy_joules(0.7, 0.0) == 0.0

    def test_rejects_utilization_above_one(self):
        with pytest.raises(ValueError):
            LinearPowerModel().power(1.2)

    def test_rejects_negative_utilization(self):
        with pytest.raises(ValueError):
            LinearPowerModel().power(-0.1)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            LinearPowerModel().energy_joules(0.5, -1.0)

    def test_rejects_max_below_idle(self):
        with pytest.raises(ValueError):
            LinearPowerModel(idle_watts=150.0, max_watts=100.0)

    def test_rejects_negative_watts(self):
        with pytest.raises(ValueError):
            LinearPowerModel(idle_watts=-1.0)

    def test_power_array_matches_scalar_power(self):
        model = LinearPowerModel()
        u = np.linspace(0.0, 1.0, 37)
        assert model.power_array(u).tolist() == [model.power(float(x)) for x in u]
