"""Tests for the thermal <-> fault-physics coupling (extension).

The paper holds Chip 0 at 82 C precisely because read disturbance and
retention are temperature-sensitive; these tests verify the coupling the
simulator adds on top (following the DDR4 temperature literature the
paper cites: mild HC sensitivity, retention halving per ~10 C).
"""

import numpy as np
import pytest

from repro.dram.cell_model import CellPopulation
from repro.dram.device import (HBM2Stack, UniformProfileProvider,
                               TEMPERATURE_HC_SENSITIVITY)
from repro.dram.geometry import RowAddress
from repro.thermal.controller import TemperatureController
from repro.thermal.plant import ThermalPlant

VICTIM = RowAddress(0, 0, 0, 5000)


def make_device(temperature_c=50.0):
    device = HBM2Stack(
        profile_provider=UniformProfileProvider(
            CellPopulation(f_weak=0.014, mu_weak=5.0)),
        retention=None,
        calibration_temperature_c=50.0)
    device.set_temperature(temperature_c)
    return device


class TestDisturbanceFactor:
    def test_unity_at_calibration(self):
        assert make_device(50.0).temperature_disturbance_factor() == 1.0

    def test_hotter_disturbs_more(self):
        factor = make_device(90.0).temperature_disturbance_factor()
        assert factor == pytest.approx(
            1.0 + 40 * TEMPERATURE_HC_SENSITIVITY)

    def test_colder_disturbs_less(self):
        assert make_device(30.0).temperature_disturbance_factor() < 1.0

    def test_floor(self):
        assert make_device(-1000.0).temperature_disturbance_factor() \
            == 0.2

    def test_disabled_without_calibration_point(self):
        device = HBM2Stack(retention=None)
        device.set_temperature(120.0)
        assert device.temperature_disturbance_factor() == 1.0

    def test_accumulation_scales(self):
        cold = make_device(50.0)
        hot = make_device(90.0)
        for device in (cold, hot):
            device.hammer(VICTIM.neighbor(1), 1000)
        ratio = hot.accumulated_units(VICTIM) \
            / cold.accumulated_units(VICTIM)
        assert ratio == pytest.approx(
            1.0 + 40 * TEMPERATURE_HC_SENSITIVITY)


class TestRetentionAcceleration:
    def test_doubles_per_ten_degrees(self):
        assert make_device(60.0).retention_acceleration() == \
            pytest.approx(2.0)
        assert make_device(40.0).retention_acceleration() == \
            pytest.approx(0.5)

    def test_stored_value_follows_every_temperature_write(self):
        """The acceleration is derived once per temperature write (the
        restore's early exit reads it on every call), so it must equal
        the formula after construction and after each set_temperature."""
        device = make_device(50.0)
        assert device.retention_acceleration() == 1.0
        for temperature in (62.0, 91.5, 50.0, 17.0):
            device.set_temperature(temperature)
            assert device.retention_acceleration() \
                == 2.0 ** ((temperature - 50.0) / 10.0)
        assert HBM2Stack(retention=None).retention_acceleration() == 1.0

    def test_hot_chip_loses_data_sooner(self, chip0):
        device = chip0.make_device()
        # Find a row with retention just above 1 s at calibration temp.
        address = None
        for row in range(3000, 3400):
            candidate = RowAddress(0, 0, 0, row)
            retention = chip0.retention.row_retention_ns(candidate)
            if 1.0e9 < retention < 2.0e9:
                address = candidate
                truth = retention
                break
        assert address is not None
        image = np.full(1024, 0xFF, dtype=np.uint8)
        # At calibration temperature: survives 0.9x its retention time.
        device.write_row(address, image)
        device.wait(truth * 0.9)
        assert np.array_equal(device.read_row(address), image)
        # 20 C hotter: the same wait spans 3.6x the retention time.
        device.set_temperature(chip0.spec.nominal_temperature_c + 20.0)
        device.write_row(address, image)
        device.wait(truth * 0.9)
        assert not np.array_equal(device.read_row(address), image)


class TestControllerCoupling:
    def test_coupled_controller_drives_device_temperature(self):
        device = make_device(50.0)
        controller = TemperatureController(
            ThermalPlant(ambient_c=38.0), target_c=82.0,
            rng=np.random.default_rng(0))
        controller.couple(device)
        controller.run(3600.0)
        assert device.temperature_c == pytest.approx(82.0, abs=1.5)
        assert device.temperature_disturbance_factor() > 1.05
