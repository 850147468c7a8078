"""Admission control: token buckets, point ledgers, backpressure."""

import pytest

from repro.errors import AdmissionDenied, ServiceError
from repro.service.admission import (
    AdmissionController,
    AdmissionPolicy,
    TenantQuota,
    TokenBucket,
)


class FakeClock:
    """A hand-cranked monotonic clock so no test sleeps."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_empty(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=1.0, burst=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=2.0, burst=2, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.5)  # 1 token back at 2/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=100.0, burst=2, clock=clock)
        clock.advance(3600.0)
        assert [bucket.try_acquire() for _ in range(3)] == [True, True, False]

    def test_seconds_until_is_the_deficit(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=2.0, burst=1, clock=clock)
        assert bucket.seconds_until() == 0.0
        bucket.try_acquire()
        assert bucket.seconds_until() == pytest.approx(0.5)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ServiceError):
            TokenBucket(rate_per_s=0.0, burst=1)
        with pytest.raises(ServiceError):
            TokenBucket(rate_per_s=1.0, burst=0)


class TestQuotaAndPolicy:
    def test_quota_validation(self):
        with pytest.raises(ServiceError):
            TenantQuota(rate_per_s=-1.0)
        with pytest.raises(ServiceError):
            TenantQuota(burst=0)
        with pytest.raises(ServiceError):
            TenantQuota(max_concurrent_points=-1)

class TestAdmissionController:
    def controller(self, **kwargs):
        clock = FakeClock()
        policy = AdmissionPolicy(
            default_quota=TenantQuota(
                rate_per_s=kwargs.pop("rate_per_s", 10.0),
                burst=kwargs.pop("burst", 2),
                max_concurrent_points=kwargs.pop("max_points", 10),
            ),
            max_queue_depth=kwargs.pop("max_queue_depth", 4),
            **kwargs,
        )
        return AdmissionController(policy, clock=clock), clock

    def test_admit_charges_the_point_ledger(self):
        ctl, _ = self.controller()
        ctl.admit("alice", points=3, queue_depth=0)
        assert ctl.inflight_points("alice") == 3
        ctl.release("alice", 3)
        assert ctl.inflight_points("alice") == 0

    def test_backpressure_is_checked_first(self):
        """A full queue denies everyone, before rate or quota even look."""
        ctl, _ = self.controller(burst=1)
        ctl.admit("alice", points=1, queue_depth=0)  # bucket now empty too
        with pytest.raises(AdmissionDenied) as exc:
            ctl.admit("alice", points=1, queue_depth=4)
        assert exc.value.reason == "backpressure"

    def test_rate_denial_carries_retry_hint(self):
        ctl, _ = self.controller(rate_per_s=2.0, burst=1)
        ctl.admit("alice", points=1, queue_depth=0)
        with pytest.raises(AdmissionDenied) as exc:
            ctl.admit("alice", points=1, queue_depth=0)
        assert exc.value.reason == "rate"
        assert exc.value.tenant == "alice"
        assert exc.value.retry_after_s == pytest.approx(0.5)

    def test_rate_recovers_when_the_clock_advances(self):
        ctl, clock = self.controller(rate_per_s=2.0, burst=1)
        ctl.admit("alice", points=1, queue_depth=0)
        ctl.release("alice", 1)
        clock.advance(1.0)
        ctl.admit("alice", points=1, queue_depth=0)  # must not raise

    def test_quota_denial_is_typed(self):
        ctl, _ = self.controller(max_points=4, burst=10)
        ctl.admit("alice", points=3, queue_depth=0)
        with pytest.raises(AdmissionDenied) as exc:
            ctl.admit("alice", points=2, queue_depth=0)
        assert exc.value.reason == "quota"
        # The denied submission must not have charged the ledger.
        assert ctl.inflight_points("alice") == 3

    def test_tenants_have_independent_standing(self):
        ctl, _ = self.controller(max_points=2, burst=10)
        ctl.admit("alice", points=2, queue_depth=0)
        ctl.admit("bob", points=2, queue_depth=0)  # bob is unaffected
        with pytest.raises(AdmissionDenied):
            ctl.admit("alice", points=1, queue_depth=0)

    def test_denials_are_counted_per_tenant_and_reason(self):
        ctl, _ = self.controller(max_points=1, burst=10)
        ctl.admit("alice", points=1, queue_depth=0)
        for _ in range(2):
            with pytest.raises(AdmissionDenied):
                ctl.admit("alice", points=1, queue_depth=0)
        assert ctl.denials == {"alice": {"quota": 2}}

    def test_release_underflow_raises(self):
        ctl, _ = self.controller()
        ctl.admit("alice", points=2, queue_depth=0)
        with pytest.raises(ServiceError, match="underflow"):
            ctl.release("alice", 3)

    def test_zero_point_job_is_misuse(self):
        ctl, _ = self.controller()
        with pytest.raises(ServiceError, match=">= 1 point"):
            ctl.admit("alice", points=0, queue_depth=0)
