"""Typed metrics registry: slots, reductions, merge, disabled mode."""

import math

import pytest

from repro.errors import ObservabilityError
from repro.obs import MetricsRegistry, exponential_buckets


class TestCounter:
    def test_per_rank_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        c.inc(rank=0, labels={"kind": "a"})
        c.inc(2.0, rank=1, labels={"kind": "a"})
        c.inc(rank=1, labels={"kind": "b"})
        assert c.value(rank=0, labels={"kind": "a"}) == 1.0
        assert c.total(labels={"kind": "a"}) == 3.0
        assert c.value(rank=1, labels={"kind": "a"}) == 2.0
        assert c.value(rank=5, labels={"kind": "a"}) == 0.0

    def test_negative_increment_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="negative"):
            reg.counter("c").inc(-1.0)


class TestGauge:
    def test_set_and_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(3.0, rank=0)
        g.set(7.0, rank=1)
        g.set(5.0, rank=1)
        assert g.value(rank=1) == 5.0
        assert g.max() == 5.0


class TestHistogram:
    def test_stats_mean_is_sum_over_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("seconds")
        values = [0.5, 1.5, 2.0]
        for v in values:
            h.observe(v, rank=0)
        stats = h.stats(rank=0)
        assert stats["count"] == 3
        assert stats["sum"] == sum(values)
        assert stats["mean"] == sum(values) / 3

    def test_cumulative_buckets_monotone_inf_total(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=exponential_buckets(0.001, 2.0, 10))
        for v in (0.0005, 0.003, 0.1, 9.0, 1e6):
            h.observe(v)
        cum = h.cumulative_buckets()
        counts = [c for _, c in cum]
        assert counts == sorted(counts)
        assert cum[-1][0] == math.inf
        assert cum[-1][1] == 5

    def test_unsorted_buckets_raise(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="sorted"):
            reg.histogram("bad", buckets=(2.0, 1.0))

    def test_exponential_buckets_shape(self):
        b = exponential_buckets(1.0, 2.0, 4)
        assert b == (1.0, 2.0, 4.0, 8.0)
        with pytest.raises(ObservabilityError):
            exponential_buckets(1.0, 0.5, 4)


class TestRegistry:
    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObservabilityError):
            reg.gauge("x")

    def test_same_instrument_returned(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_merged_rows(self):
        reg = MetricsRegistry()
        c = reg.counter("events_total")
        c.inc(rank=0, labels={"kind": "send"})
        c.inc(3.0, rank=1, labels={"kind": "send"})
        rows = [s for s in reg.merged() if s.name == "events_total"]
        assert len(rows) == 1
        assert rows[0].value == 4.0

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("x")
        g = reg.gauge("y")
        h = reg.histogram("z")
        c.inc(10.0)
        g.set(1.0)
        h.observe(1.0)
        assert reg.instruments() == []
        assert reg.merged() == []
        # null instruments are shared singletons: no per-call allocation
        assert reg.counter("other") is c
