"""The paper's contribution: cross-platform deployment & characterization.

The ADAPT project's question — "how hard, slow, and expensive is it to
run *this* application on *that* platform?" — becomes an executable
pipeline: provision (porting effort), schedule (availability), execute
(performance through the simulator/model) and bill (cost).  Comparing
platforms is the assembly broker's job (:mod:`repro.broker.assembly`),
which prices each candidate through :func:`deploy_and_run`.
"""

from repro.core.deployment import DeploymentReport, deploy_and_run
from repro.core.characterization import (
    characterization_matrix,
    render_table1,
    platform_gaps,
)
from repro.core.reporting import ascii_table, ascii_chart

__all__ = [
    "DeploymentReport",
    "deploy_and_run",
    "characterization_matrix",
    "render_table1",
    "platform_gaps",
    "ascii_table",
    "ascii_chart",
]
