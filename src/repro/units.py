"""Small unit-conversion helpers used across the library.

All internal computation uses SI base units: seconds, bytes, dollars,
flops.  These helpers exist so module code reads like the paper
("20 Gb/s", "5 cents per core-hour") while staying unambiguous.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# time
# ---------------------------------------------------------------------------

MICROSECOND = 1e-6
MINUTE = 60.0
HOUR = 3600.0


def microseconds(value: float) -> float:
    """Convert microseconds to seconds."""
    return value * MICROSECOND


def minutes(value: float) -> float:
    """Convert minutes to seconds."""
    return value * MINUTE


def hours(value: float) -> float:
    """Convert hours to seconds."""
    return value * HOUR


# ---------------------------------------------------------------------------
# data size / rate
# ---------------------------------------------------------------------------

KB = 1000
MB = 1000 * KB
GB = 1000 * MB


def gbit_per_s(value: float) -> float:
    """Convert a link rate in gigabits/second to bytes/second."""
    return value * 1e9 / 8.0


def mbyte_per_s(value: float) -> float:
    """Convert a rate in megabytes/second to bytes/second."""
    return value * 1e6


# ---------------------------------------------------------------------------
# money
# ---------------------------------------------------------------------------

CENT = 0.01


def cents(value: float) -> float:
    """Convert US cents to dollars."""
    return value * CENT


def dollars(value: float) -> float:
    """Identity, for symmetric call sites."""
    return float(value)


def eur_to_usd(value_eur: float, rate: float = 1.2793) -> float:
    """Convert euros to dollars.

    The default rate reproduces the paper's conversion: lagrange is billed
    at EUR 0.15 per core-hour, reported as 19.19 US cents ("currently,
    about $0.20") in §VII.D.
    """
    return value_eur * rate


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------
