"""The paper's published numbers, transcribed once.

Table II is the only fully numeric artifact in the paper (the figures
are plots); §VII.D states the cost rates and §VI the porting efforts.
Tests and benchmarks import from here instead of re-transcribing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PaperTable2Row:
    """One measured row of Table II (EC2 cc2.8xlarge assemblies)."""

    mpi: int
    nodes: int
    full_time_s: float
    full_real_cost: float
    mix_time_s: float
    mix_est_cost: float


# Table II, verbatim.
PAPER_TABLE2: dict[int, PaperTable2Row] = {
    row.mpi: row
    for row in (
        PaperTable2Row(1, 1, 4.83, 0.0032, 4.77, 0.0007),
        PaperTable2Row(8, 1, 5.83, 0.0039, 5.78, 0.0009),
        PaperTable2Row(27, 2, 7.28, 0.0097, 7.58, 0.0023),
        PaperTable2Row(64, 4, 8.69, 0.0232, 8.82, 0.0053),
        PaperTable2Row(125, 8, 21.65, 0.1155, 21.24, 0.0255),
        PaperTable2Row(216, 14, 31.47, 0.2937, 31.47, 0.0661),
        PaperTable2Row(343, 22, 66.34, 0.9729, 62.57, 0.2065),
        PaperTable2Row(512, 32, 92.20, 1.9670, 94.52, 0.4537),
        PaperTable2Row(729, 46, 127.76, 3.9179, 128.10, 0.8839),
        PaperTable2Row(1000, 63, 162.09, 6.8077, 148.98, 1.4079),
    )
}

# §VII.D cost rates, dollars per core-hour.
PAPER_COST_RATES = {
    "puma": 0.023,
    "ellipse": 0.05,
    "lagrange": 0.1919,
    "ec2": 0.15,
    "ec2-spot": 0.03375,
}

# EC2 cc2.8xlarge node-hour prices during the experiments (§VII.B).
PAPER_EC2_NODE_HOURLY = 2.40
PAPER_EC2_SPOT_HOURLY = 0.54

# §VII.A execution ceilings per platform (weak-scaling truncations).
PAPER_MAX_RANKS = {
    "puma": 125,  # 128 cores; the largest cube is 125
    "ellipse": 512,  # mpiexec could not start more remote daemons
    "lagrange": 343,  # IB adapter data-volume limit
    "ec2": 1000,  # 63 cc2.8xlarge instances
}

# §VI porting narrative: approximate man-hours per platform.
PAPER_PORTING_HOURS = {
    "puma": 0.0,
    "ellipse": 8.0,
    "lagrange": 8.0,
    "ec2": 8.0,  # "about a day" including the cloud configuration steps
}

# Weak-scaling setup (§VII.A).
PAPER_ELEMENTS_PER_RANK = 20**3
# Stated in §VII.A; the solvers' and ObsConfig's ``discard=5`` restate it.
PAPER_DISCARDED_ITERATIONS = 5
PAPER_RANK_SERIES = (1, 8, 27, 64, 125, 216, 343, 512, 729, 1000)
