"""Multi-attribute platform characterization (Table I and its gaps)."""

from __future__ import annotations

from repro.platforms.catalog import all_platforms, table1_rows
from repro.platforms.provisioning import deployment_gap, plan_provisioning
from repro.platforms.spec import PlatformSpec


def characterization_matrix() -> dict[str, dict[str, str]]:
    """Table I as attribute -> platform -> cell."""
    return table1_rows()


def platform_gaps(platforms: list[PlatformSpec] | None = None) -> dict[str, dict]:
    """Per platform: the missing packages and how the plan fills them.

    This is the information the paper renders as Table I's colored
    cells ("In color: how we addressed the missing capabilities").
    """
    if platforms is None:
        platforms = all_platforms()
    out: dict[str, dict] = {}
    for platform in platforms:
        plan = plan_provisioning(platform)
        out[platform.name] = {
            "missing": deployment_gap(platform),
            "by_method": plan.by_method(),
            "effort_hours": plan.total_hours,
        }
    return out


def render_table1(rows: dict[str, dict[str, str]] | None = None) -> str:
    """Render Table I as fixed-width text, 14 characters a column.

    ``rows`` defaults to a freshly generated matrix; the artifact
    registry passes a precomputed (possibly cache-served) one instead.
    """
    if rows is None:
        rows = table1_rows()
    platforms = [p.name for p in all_platforms()]
    width = 14
    lines = []
    header = f"{'':<{width}}" + "".join(f"{name:<{width}}" for name in platforms)
    lines.append(header)
    lines.append("-" * len(header))
    for attr, cells in rows.items():
        line = f"{attr:<{width}}" + "".join(
            f"{cells[name][: width - 1]:<{width}}" for name in platforms
        )
        lines.append(line)
    return "\n".join(lines)
