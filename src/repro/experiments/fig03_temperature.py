"""Fig. 3: tested HBM2 chips' temperature over 24 hours.

Measurements taken every 5 seconds; Chip 0 regulated at 82 C by the
heating-pad/fan controller, Chips 1-5 uncontrolled but stable.
"""

from __future__ import annotations

from repro.analysis.reporting import render_table
from repro.experiments.base import ExperimentResult
from repro.thermal.trace import TRACE_DURATION_S, all_traces


def run(scale: float = 1.0) -> ExperimentResult:
    """Generate the six telemetry traces and summarize their stability."""
    duration = max(1800.0, TRACE_DURATION_S * scale)
    traces = all_traces(duration_s=duration)
    rows = []
    data = {}
    for label, trace in traces.items():
        rows.append([
            label,
            "82 C setpoint" if trace.controlled else "uncontrolled",
            f"{trace.mean_c:.1f}",
            f"{trace.peak_to_peak_c:.2f}",
            trace.temperatures_c.size,
        ])
        data[label] = {
            "controlled": trace.controlled,
            "mean_c": trace.mean_c,
            "peak_to_peak_c": trace.peak_to_peak_c,
            "samples": int(trace.temperatures_c.size),
        }
    text = render_table(
        ["Chip", "Regulation", "Mean [C]", "Peak-to-peak [C]", "Samples"],
        rows,
        title=f"Fig. 3: chip temperature over {duration / 3600:.1f} h "
              "(5 s sampling)")
    paper = {
        "Chip 0": {"mean_c": 82.0, "controlled": True},
        "stability": "all chips stable over 24 h",
    }
    return ExperimentResult("fig03", "Chip temperatures", text, data, paper)
