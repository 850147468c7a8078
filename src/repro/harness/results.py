"""Shared result structures and reductions for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.perfmodel.weak_scaling import WeakScalingPoint


@dataclass(frozen=True)
class Table1Matrix:
    """Table I as a typed result: attribute -> platform -> cell text.

    Access cells through :meth:`cell` (typed, raising on absent keys)
    or :meth:`as_dict` for the historical nested-dict shape; the
    transitional mapping shims (``matrix[attr]``, ``.items()``) were
    removed after their deprecation release — see ``docs/api.md``.
    """

    rows: dict[str, dict[str, str]]

    def platforms(self) -> list[str]:
        """Platform names (Table I's columns) in the paper's order."""
        first = next(iter(self.rows.values()))
        return list(first)

    def cell(self, attribute: str, platform: str) -> str:
        """One cell's text; raises :class:`ExperimentError` when absent."""
        try:
            return self.rows[attribute][platform]
        except KeyError:
            raise ExperimentError(
                f"Table I has no cell ({attribute!r}, {platform!r})"
            ) from None

    def as_dict(self) -> dict[str, dict[str, str]]:
        """The historical ``dict[str, dict[str, str]]`` shape."""
        return {attr: dict(cells) for attr, cells in self.rows.items()}


@dataclass(frozen=True)
class PortingEffort:
    """One platform's §VI porting story: hours, gaps, and the actions."""

    platform: str
    total_hours: float
    by_method: dict[str, tuple[str, ...]]
    missing_packages: tuple[str, ...]
    actions: tuple[str, ...]

    def as_dict(self) -> dict:
        """The historical per-platform dict shape."""
        return {
            "total_hours": self.total_hours,
            "by_method": {k: list(v) for k, v in self.by_method.items()},
            "missing_packages": list(self.missing_packages),
            "actions": list(self.actions),
        }


@dataclass(frozen=True)
class PortingEffortReport:
    """§VI across all platforms, replacing the old ``dict[str, dict]``."""

    entries: dict[str, PortingEffort] = field(default_factory=dict)

    def platforms(self) -> list[str]:
        """Platform names in the paper's order."""
        return list(self.entries)

    def effort(self, platform: str) -> PortingEffort:
        """One platform's record; raises when unknown."""
        try:
            return self.entries[platform]
        except KeyError:
            raise ExperimentError(
                f"no porting-effort record for {platform!r}"
            ) from None

    def as_dict(self) -> dict[str, dict]:
        """The historical ``platform -> fields`` nested-dict shape."""
        return {name: e.as_dict() for name, e in self.entries.items()}


@dataclass(frozen=True)
class WeakScalingTable:
    """A full figure's data: per platform, the weak-scaling column."""

    workload: str
    columns: dict[str, list[WeakScalingPoint]]

    def platforms(self) -> list[str]:
        """Platform names in insertion order."""
        return list(self.columns)

    def point(self, platform: str, num_ranks: int) -> WeakScalingPoint:
        """Look up one cell."""
        for pt in self.columns[platform]:
            if pt.num_ranks == num_ranks:
                return pt
        raise ExperimentError(f"no point ({platform}, {num_ranks})")

    def feasible_max(self, platform: str) -> int:
        """The largest feasible rank count of a platform's column."""
        feasible = [pt.num_ranks for pt in self.columns[platform] if pt.feasible]
        if not feasible:
            raise ExperimentError(f"{platform} has no feasible points")
        return max(feasible)


def weak_scaling_rows(
    table: WeakScalingTable, value: str = "total"
) -> tuple[list[str], list[list]]:
    """(headers, rows) for the figure: ranks x platforms of ``value``.

    ``value``: 'total', 'assembly', 'preconditioner', 'solve', or
    'cost' (per-iteration dollars).
    """
    platforms = table.platforms()
    first = table.columns[platforms[0]]
    ranks = [pt.num_ranks for pt in first]
    headers = ["ranks"] + platforms
    rows = []
    for i, p in enumerate(ranks):
        row: list = [p]
        for name in platforms:
            pt = table.columns[name][i]
            if not pt.feasible:
                row.append(None)
            elif value == "cost":
                row.append(pt.cost_per_iteration)
            else:
                row.append(pt.prediction.as_dict()[value])
        rows.append(row)
    return headers, rows


def weak_scaling_series(
    table: WeakScalingTable, value: str = "total"
) -> dict[str, list[tuple[float, float]]]:
    """Chart series: platform -> [(ranks, value), ...], feasible only."""
    out: dict[str, list[tuple[float, float]]] = {}
    for name, points in table.columns.items():
        series = []
        for pt in points:
            if not pt.feasible:
                continue
            if value == "cost":
                series.append((float(pt.num_ranks), pt.cost_per_iteration))
            else:
                series.append(
                    (float(pt.num_ranks), pt.prediction.as_dict()[value])
                )
        out[name] = series
    return out
