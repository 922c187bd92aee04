"""Extension experiment: read disturbance vs chip temperature.

Not a paper artifact — the paper pins Chip 0 at 82 C rather than
sweeping.  This extension sweeps the coupled thermal model: HC_first
falls mildly with temperature (the sensitivity the DDR4 literature
reports) while retention collapses quickly (2x per ~10 C).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import render_table
from repro.bender.host import BenderSession
from repro.bender.routines import search_hc_first_rows
from repro.chips.profiles import make_chip
from repro.core.patterns import CHECKERED0
from repro.dram.geometry import RowAddress
from repro.experiments.base import ExperimentResult, scaled

TEMPERATURES = (62.0, 72.0, 82.0, 92.0, 102.0)
VICTIM = RowAddress(0, 0, 0, 5000)


def run(scale: float = 1.0) -> ExperimentResult:
    """Sweep chip temperature; report HC_first and retention failures."""
    chip = make_chip(0)
    hc_series = {}
    for temperature in TEMPERATURES:
        device = chip.make_device()
        device.set_temperature(temperature)
        session = BenderSession(device, mapping=chip.row_mapping())
        # The per-row ramp-then-bisect search, one probe at a time, with
        # or without a fault plan.
        result = search_hc_first_rows(session, [VICTIM], CHECKERED0,
                                      tolerance=0.01)[0]
        hc_series[temperature] = result.hc_first

    def retention_failures(temperature: float) -> float:
        device = chip.make_device()
        device.set_temperature(temperature)
        count = scaled(200, scale, 40)
        image = np.full(1024, 0xFF, dtype=np.uint8)
        rows = range(3000, 3000 + count)
        for row in rows:
            device.write_row(RowAddress(0, 0, 0, row), image)
        device.wait(0.5e9)
        failures = sum(
            1 for row in rows
            if not np.array_equal(
                device.read_row(RowAddress(0, 0, 0, row)), image))
        return failures / count

    retention_series = {t: retention_failures(t)
                        for t in (82.0, 102.0)}
    rows = [[f"{t:.0f} C", f"{hc:,}"]
            for t, hc in hc_series.items()]
    text = render_table(
        ["Temperature", "HC_first (row 5000)"], rows,
        title="Extension: temperature sweep (Chip 0)")
    text += ("\n\nRows failing retention after 500 ms unrefreshed: "
             + ", ".join(f"{t:.0f} C -> {frac:.1%}"
                         for t, frac in retention_series.items()))
    data = {"hc_first": hc_series, "retention": retention_series}
    paper = {"expectation": "mild HC sensitivity, strong retention "
                            "sensitivity (DDR4 literature)"}
    return ExperimentResult("ext-temperature", "Temperature sweep", text,
                            data, paper)
