"""Plain-text rendering of experiment results.

The benchmark harness regenerates each paper table/figure as text: the
same rows and series the paper reports, printed in aligned columns so a
reader can compare shapes side by side with the publication.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro import perf


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an aligned text table."""
    with perf.timed_phase("report"):
        materialized: List[List[str]] = [[_cell(v) for v in row]
                                         for row in rows]
        widths = [len(h) for h in headers]
        for row in materialized:
            if len(row) != len(headers):
                raise ValueError("row width does not match headers")
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if title:
            lines.append(title)
        lines.append("  ".join(h.ljust(widths[i])
                               for i, h in enumerate(headers)))
        lines.append("  ".join("-" * w for w in widths))
        for row in materialized:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
        return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4g}"
    return str(value)


def render_series(name: str, xs: Sequence[object],
                  ys: Sequence[float], x_label: str = "x",
                  y_label: str = "y") -> str:
    """Render one figure series as two aligned rows."""
    with perf.timed_phase("report"):
        header = f"{name} ({x_label} -> {y_label})"
        x_cells = [_cell(x) for x in xs]
        y_cells = [_cell(y) for y in ys]
        widths = [max(len(a), len(b)) for a, b in zip(x_cells, y_cells)]
        line_x = "  ".join(c.rjust(w) for c, w in zip(x_cells, widths))
        line_y = "  ".join(c.rjust(w) for c, w in zip(y_cells, widths))
        return "\n".join([header, "  " + line_x, "  " + line_y])


def percent(fraction: float, digits: int = 2) -> str:
    """Format a fraction as a percentage string."""
    return f"{100.0 * fraction:.{digits}f}%"


def duration_label(nanoseconds: float) -> str:
    """Format a duration such as an aggressor on-time: ns, us or ms."""
    if nanoseconds < 1000:
        return f"{nanoseconds:.0f} ns"
    if nanoseconds < 1.0e6:
        return f"{nanoseconds / 1000:.1f} us"
    return f"{nanoseconds / 1.0e6:.0f} ms"


def compare_line(label: str, paper: object, measured: object) -> str:
    """One EXPERIMENTS.md-style 'paper vs measured' line."""
    return f"  {label}: paper={_cell(paper)}  measured={_cell(measured)}"
