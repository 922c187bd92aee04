"""Fig. 3: 24-hour temperature telemetry of the six tested chips.

Measurements are taken every 5 seconds over a 24 hour window.  Chip 0 is
regulated at 82 C by the controller; Chips 1-5 are uncontrolled but
stable, showing only slow ambient drift (lab day/night cycle) plus sensor
noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.chips.profiles import CHIP_SPECS, ChipSpec
from repro.thermal.controller import TemperatureController
from repro.thermal.plant import ThermalPlant

#: Fig. 3 sampling parameters.
SAMPLE_PERIOD_S = 5.0
TRACE_DURATION_S = 24.0 * 3600.0


@dataclass(frozen=True)
class TemperatureTrace:
    """One chip's telemetry."""

    label: str
    times_s: np.ndarray
    temperatures_c: np.ndarray
    controlled: bool
    target_c: float

    @property
    def mean_c(self) -> float:
        """Mean temperature over the trace."""
        return float(self.temperatures_c.mean())

    @property
    def peak_to_peak_c(self) -> float:
        """Temperature swing over the trace."""
        return float(self.temperatures_c.max()
                     - self.temperatures_c.min())


def _controlled_trace(spec: ChipSpec, duration_s: float,
                      period_s: float,
                      warmup_s: float = 1800.0) -> np.ndarray:
    plant = ThermalPlant(ambient_c=38.0)
    controller = TemperatureController(
        plant=plant, target_c=spec.nominal_temperature_c,
        sample_period_s=period_s,
        rng=np.random.default_rng(spec.seed))
    # The rig reaches its set point before measurements start (the paper
    # records an already-regulated chip); discard the warm-up transient.
    controller.run(warmup_s)
    controller.history.clear()
    return controller.run(duration_s)


def _uncontrolled_trace(spec: ChipSpec, duration_s: float,
                        period_s: float) -> np.ndarray:
    steps = int(duration_s // period_s)
    rng = np.random.default_rng(spec.seed)
    times = np.arange(steps) * period_s
    # Slow lab day/night ambient drift (+-0.8 C over 24 h) plus a touch of
    # 1/f-like wander and quantized sensor noise.
    diurnal = 0.8 * np.sin(2.0 * np.pi * times / 86_400.0
                           + rng.uniform(0, 2 * np.pi))
    wander = np.cumsum(rng.normal(0.0, 0.004, steps))
    wander -= np.linspace(0.0, wander[-1], steps)  # keep it bounded
    noise = rng.normal(0.0, 0.12, steps)
    trace = spec.nominal_temperature_c + diurnal + wander + noise
    return np.round(trace * 4.0) / 4.0


def chip_temperature_trace(chip_index: int,
                           duration_s: float = TRACE_DURATION_S,
                           period_s: float = SAMPLE_PERIOD_S
                           ) -> TemperatureTrace:
    """Generate one chip's Fig. 3 telemetry."""
    spec = CHIP_SPECS[chip_index]
    if spec.temperature_controlled:
        temperatures = _controlled_trace(spec, duration_s, period_s)
    else:
        temperatures = _uncontrolled_trace(spec, duration_s, period_s)
    times = np.arange(temperatures.size) * period_s
    return TemperatureTrace(
        label=spec.label,
        times_s=times,
        temperatures_c=temperatures,
        controlled=spec.temperature_controlled,
        target_c=spec.nominal_temperature_c,
    )


def all_traces(duration_s: float = TRACE_DURATION_S,
               period_s: float = SAMPLE_PERIOD_S
               ) -> Dict[str, TemperatureTrace]:
    """Fig. 3: telemetry for all six chips."""
    return {
        spec.label: chip_temperature_trace(spec.index, duration_s, period_s)
        for spec in CHIP_SPECS
    }
