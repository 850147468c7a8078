"""Plain-text tables and log-scale ASCII charts.

The benchmark harness prints the same rows and series the paper's
tables and figures report; these helpers do the rendering without any
plotting dependency.
"""

from __future__ import annotations

import io
import math

from repro.errors import ExperimentError


def ascii_table(headers: list[str], rows: list[list], fmt: str = "{:.4g}") -> str:
    """Render rows as a fixed-width text table, columns at least 8 wide.

    Numeric cells go through ``fmt``; None renders as '-'.
    """
    min_width = 8
    if not headers:
        raise ExperimentError("table needs headers")

    def cell(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return fmt.format(value)
        return str(value)

    text_rows = [[cell(v) for v in row] for row in rows]
    widths = [
        max(min_width, len(h), *(len(r[i]) for r in text_rows)) if text_rows else max(min_width, len(h))
        for i, h in enumerate(headers)
    ]
    out = io.StringIO()
    out.write("  ".join(h.rjust(w) for h, w in zip(headers, widths)) + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for row in text_rows:
        out.write("  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n")
    return out.getvalue()


def ascii_chart(
    series: dict[str, list[tuple[float, float]]],
    title: str = "",
) -> str:
    """A crude 60 x 16 multi-series scatter chart in text, log-y.

    Each series is a list of (x, y) with positive y.  Missing/infeasible
    points should simply be absent.
    """
    width, height = 60, 16
    points = [(x, y) for pts in series.values() for x, y in pts if math.isfinite(y)]
    if not points:
        raise ExperimentError("no finite points to chart")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if min(ys) <= 0:
        raise ExperimentError("log-scale chart requires positive y values")

    y_lo, y_hi = math.log10(min(ys)), math.log10(max(ys))
    x_lo, x_hi = min(xs), max(xs)
    y_span = (y_hi - y_lo) or 1.0
    x_span = (x_hi - x_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    markers = "ox+*#@%&"
    for idx, (name, pts) in enumerate(series.items()):
        mark = markers[idx % len(markers)]
        for x, y in pts:
            if not math.isfinite(y):
                continue
            col = round((x - x_lo) / x_span * (width - 1))
            row = round((math.log10(y) - y_lo) / y_span * (height - 1))
            grid[height - 1 - row][col] = mark

    out = io.StringIO()
    if title:
        out.write(title + "\n")
    y_top, y_bot = f"{10**y_hi:.3g}", f"{10**y_lo:.3g}"
    for i, line in enumerate(grid):
        label = y_top if i == 0 else (y_bot if i == height - 1 else "")
        out.write(f"{label:>9} |" + "".join(line) + "\n")
    out.write(" " * 10 + "+" + "-" * width + "\n")
    out.write(f"{'':>10} {x_lo:<10.4g}{'':^{max(width - 22, 1)}}{x_hi:>10.4g}\n")
    legend = "   ".join(
        f"{markers[i % len(markers)]}={name}" for i, name in enumerate(series)
    )
    out.write("legend: " + legend + "\n")
    return out.getvalue()


def render_resilience_table(report) -> str:
    """Restart statistics next to the cost columns, as fixed-width text.

    ``report`` is a :class:`~repro.harness.experiments.ResilienceReport`;
    the executed restart accounting (restarts, lost steps, measured
    overhead) sits beside the billed dollars and the model's predicted
    overhead, because the §VII.D cost argument only holds when all three
    agree on how expensive failure actually is.
    """
    headers = [
        "ranks", "steps", "restarts", "lost steps", "overhead",
        "interrupts", "mix cost $", "on-dem $", "model ovh", "opt ckpt s",
    ]
    rows = [[
        report.num_ranks,
        report.num_steps,
        report.restarts,
        report.lost_steps,
        report.overhead_fraction,
        report.interruptions,
        report.mix_cost,
        report.on_demand_cost,
        report.model_overhead_fraction,
        report.optimal_interval_s,
    ]]
    table = ascii_table(headers, rows)
    return (
        table
        + f"spot ranks: {list(report.spot_ranks)}  "
        + f"reclaim rounds: {list(report.reclaim_rounds)}  "
        + f"nodal error: {report.nodal_error:.3e}\n"
    )
