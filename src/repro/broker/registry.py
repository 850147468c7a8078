"""The paper-artifact registry: every table/figure as a sweep definition.

One :class:`ArtifactSpec` per paper artifact names its independently
computable *points* (a platform column, a Table II row, one resilience
run), how to evaluate a single point, how to assemble point results
into the artifact, and how to render the artifact as text.

This is the only definition of an artifact: the sweep engine
(:mod:`repro.broker.engine`) evaluates the points — in-process or
fanned out over worker processes — through the point functions of
:mod:`repro.harness.experiments`, and reassembles them in definition
order, so serial and pooled runs produce bit-identical artifacts.
All evaluate/assemble callables are module-level functions so point
evaluation can cross a ``ProcessPoolExecutor`` boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.characterization import render_table1
from repro.core.reporting import ascii_chart, ascii_table, render_resilience_table
from repro.errors import ExperimentError
from repro.harness.config import RunConfig
from repro.harness.experiments import (
    MIX_COLUMN,
    cost_column,
    elasticity_report,
    porting_effort_for,
    resilience_report,
    table2_row,
    weak_scaling_column,
)
from repro.harness.results import (
    PortingEffortReport,
    Table1Matrix,
    WeakScalingTable,
    weak_scaling_rows,
    weak_scaling_series,
)
from repro.apps.workload import NS_WORKLOAD, RD_WORKLOAD, paper_rank_series
from repro.broker.simsweep import (
    _assemble_simsweep,
    _eval_simsweep,
    render_simsweep,
)
from repro.platforms.catalog import all_platforms


@dataclass(frozen=True)
class ArtifactSpec:
    """One regenerable paper artifact as a point sweep."""

    name: str
    title: str
    points: Callable[[RunConfig], tuple[str, ...]]
    evaluate: Callable[[str, RunConfig, object], object]
    assemble: Callable[[dict[str, object], RunConfig], object]
    render: Callable[[object], str]


def _platform_names(_config: RunConfig) -> tuple[str, ...]:
    return tuple(p.name for p in all_platforms())


def _cost_columns(_config: RunConfig) -> tuple[str, ...]:
    return _platform_names(_config) + (MIX_COLUMN,)


def _table2_points(_config: RunConfig) -> tuple[str, ...]:
    return tuple(str(p) for p in paper_rank_series(1000))


def _single_point(_config: RunConfig) -> tuple[str, ...]:
    return ("all",)


# -- point evaluators (module-level: they cross the process boundary) -------


def _eval_table1(_key, _config, _hub):
    from repro.core.characterization import characterization_matrix

    return characterization_matrix()


def _eval_porting(key, _config, _hub):
    return porting_effort_for(key)


def _eval_fig4(key, _config, _hub):
    return weak_scaling_column(RD_WORKLOAD.name, key)


def _eval_fig5(key, _config, _hub):
    return weak_scaling_column(NS_WORKLOAD.name, key)


def _eval_fig6(key, _config, _hub):
    return cost_column(RD_WORKLOAD.name, key)


def _eval_fig7(key, _config, _hub):
    return cost_column(NS_WORKLOAD.name, key)


def _eval_table2(key, config, _hub):
    return table2_row(int(key), config.seed)


def _eval_resilience(_key, config, hub):
    return resilience_report(config.resilience, hub)


def _eval_elasticity(_key, config, hub):
    return elasticity_report(config.seed, hub)


# -- assemblers --------------------------------------------------------------


def _assemble_table1(values, _config):
    return Table1Matrix(rows=values["all"])


def _assemble_porting(values, config):
    return PortingEffortReport(
        entries={key: values[key] for key in _platform_names(config)}
    )


def _weak_scaling_assembler(workload_name, columns_fn):
    def assemble(values, config):
        return WeakScalingTable(
            workload=workload_name,
            columns={key: values[key] for key in columns_fn(config)},
        )

    return assemble


def _assemble_table2(values, config):
    return [values[key] for key in _table2_points(config)]


def _assemble_single(values, _config):
    return values["all"]


# -- renderers ---------------------------------------------------------------


def _weak_scaling_text(table, value: str, title: str) -> str:
    headers, rows = weak_scaling_rows(table, value)
    fmt = "{:.4f}" if value == "cost" else "{:.4g}"
    out = title + "\n\n" + ascii_table(headers, rows, fmt=fmt)
    out += "\n" + ascii_chart(
        weak_scaling_series(table, value), title=f"{value} vs ranks"
    )
    return out


def _render_table1(matrix: Table1Matrix) -> str:
    return render_table1(rows=matrix.rows)


def _render_porting(report: PortingEffortReport) -> str:
    lines = []
    for name, effort in report.entries.items():
        lines.append(f"=== {name} ({effort.total_hours:.1f} man-hours) ===")
        lines.extend(f"  {a}" for a in effort.actions)
    return "\n".join(lines)


def _render_fig4(table):
    return _weak_scaling_text(table, "total", "Figure 4 - RD weak scaling (s/iteration)")


def _render_fig5(table):
    return _weak_scaling_text(table, "total", "Figure 5 - NS weak scaling (s/iteration)")


def _render_fig6(table):
    return _weak_scaling_text(table, "cost", "Figure 6 - RD cost per iteration [$]")


def _render_fig7(table):
    return _weak_scaling_text(table, "cost", "Figure 7 - NS cost per iteration [$]")


def _render_table2(rows) -> str:
    data = [
        [r.mpi, r.nodes, r.full_time_s, r.full_real_cost, r.mix_time_s, r.mix_est_cost]
        for r in rows
    ]
    return "Table II - EC2 full vs mix assemblies\n\n" + ascii_table(
        ["# mpi", "#", "full time[s]", "real cost[$]", "mix time[s]", "est. cost[$]"],
        data,
        fmt="{:.4f}",
    )


def _render_resilience(report) -> str:
    return (
        "mix assembly under spot reclaims "
        f"(spot ranks {list(report.spot_ranks)}):\n"
        + render_resilience_table(report)
    )


def _render_elasticity(report) -> str:
    row = report.table2_elastic_row()
    data = [[
        row["mpi"], row["nodes"], row["time_h"], row["cost"],
        row["static_spot_cost"], row["static_ondemand_cost"],
    ]]
    table = ascii_table(
        ["# mpi", "#", "time[h]", "cost[$]", "rigid spot[$]", "on-demand[$]"],
        data,
        fmt="{:.4f}",
    )
    verdict = "beats" if report.beats_baselines else "does NOT beat"
    trajectory = "bit-identical" if report.trajectory_matches else "DIVERGED"
    return (
        "Table II (extended) - elastic re-brokering on a volatile market\n\n"
        + table
        + f"\n\nreclaim events: {report.events} "
        + f"({', '.join(report.actions) if report.actions else 'none'})\n"
        + f"elastic {verdict} both static baselines; deadline "
        + f"{'met' if report.met_deadline else 'MISSED'}\n"
        + f"malleable shrink p={report.repartition_p_old} -> "
        + f"p={report.repartition_p_new} moved "
        + f"{report.repartition_moved_fraction:.0%} of dofs; "
        + f"resumed trajectory {trajectory} to the fixed-width run"
    )


REGISTRY: dict[str, ArtifactSpec] = {
    spec.name: spec
    for spec in (
        ArtifactSpec(
            "table1", "Table I - platform specification & gap matrix",
            _single_point, _eval_table1, _assemble_table1, _render_table1,
        ),
        ArtifactSpec(
            "porting", "§VI - porting effort (man-hours per platform)",
            _platform_names, _eval_porting, _assemble_porting, _render_porting,
        ),
        ArtifactSpec(
            "fig4", "Figure 4 - RD weak scaling",
            _platform_names, _eval_fig4,
            _weak_scaling_assembler(RD_WORKLOAD.name, _platform_names), _render_fig4,
        ),
        ArtifactSpec(
            "fig5", "Figure 5 - NS weak scaling",
            _platform_names, _eval_fig5,
            _weak_scaling_assembler(NS_WORKLOAD.name, _platform_names), _render_fig5,
        ),
        ArtifactSpec(
            "table2", "Table II - EC2 full vs mix assemblies",
            _table2_points, _eval_table2, _assemble_table2, _render_table2,
        ),
        ArtifactSpec(
            "fig6", "Figure 6 - RD per-iteration costs",
            _cost_columns, _eval_fig6,
            _weak_scaling_assembler(RD_WORKLOAD.name, _cost_columns), _render_fig6,
        ),
        ArtifactSpec(
            "fig7", "Figure 7 - NS per-iteration costs",
            _cost_columns, _eval_fig7,
            _weak_scaling_assembler(NS_WORKLOAD.name, _cost_columns), _render_fig7,
        ),
        ArtifactSpec(
            "resilience", "Resilience - mix assembly under spot reclaims",
            _single_point, _eval_resilience, _assemble_single, _render_resilience,
        ),
        ArtifactSpec(
            "elasticity",
            "Table II (extended) - elastic re-brokering under spot reclaims",
            _single_point, _eval_elasticity, _assemble_single, _render_elasticity,
        ),
        ArtifactSpec(
            "simsweep",
            "Executed Fig. 4-style sweep - record once, replay per platform",
            _platform_names, _eval_simsweep, _assemble_simsweep, render_simsweep,
        ),
    )
}


def artifact_names() -> tuple[str, ...]:
    """Every registered artifact, in the paper's order."""
    return tuple(REGISTRY)


def get_artifact(name: str) -> ArtifactSpec:
    """Look one artifact up by name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ExperimentError(
            f"unknown artifact {name!r}; known: {list(REGISTRY)}"
        ) from None


def resolve_artifacts(names) -> tuple[ArtifactSpec, ...]:
    """Expand a name list (or the 'all' alias) to specs, deduplicated."""
    if isinstance(names, str):
        names = (names,)
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(artifact_names())
        else:
            expanded.append(name)
    seen: dict[str, ArtifactSpec] = {}
    for name in expanded:
        if name not in seen:
            seen[name] = get_artifact(name)
    if not seen:
        raise ExperimentError("no artifacts requested")
    return tuple(seen.values())
