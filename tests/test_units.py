"""Tests for the unit helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units


class TestTime:
    def test_conversions(self):
        assert units.microseconds(50) == pytest.approx(5e-5)
        assert units.minutes(3) == 180
        assert units.hours(2) == 7200

    @given(value=st.floats(min_value=0, max_value=1e6))
    @settings(max_examples=20, deadline=None)
    def test_hours_roundtrip(self, value):
        assert units.hours(value) / units.HOUR == pytest.approx(value)

class TestDataRates:
    def test_gbit_per_s(self):
        assert units.gbit_per_s(8) == pytest.approx(1e9)

    def test_mbyte_per_s(self):
        assert units.mbyte_per_s(118) == pytest.approx(118e6)

class TestMoney:
    def test_cents(self):
        assert units.cents(15) == pytest.approx(0.15)

    def test_eur_default_rate_matches_paper(self):
        """EUR 0.15/core-h -> the 19.19 cents of §VII.D."""
        assert units.eur_to_usd(0.15) == pytest.approx(0.1919, abs=1e-4)
