"""The service's job lifecycle as a state machine.

Hypothesis interleaves submit, cancel, release and fail against one
:class:`BrokerService` with a single worker, and after every step checks
what must hold whatever the order: every transition is one the machine
allows, every submission is counted once (coalesced, denied or a new
job), a cancelled job never ran, and every waiter gets ``run_fn``'s
value or the typed error.  ``stop()`` ends each example: it cancels what
still waits, lets the running job finish, and leaves no job in flight
and no waiter blocked.

Only the public verbs are used.  Each request's run blocks on its own
``threading.Event``, so between steps nothing moves: the worker is held
by a job whose gate is closed, or has nothing left to take.
"""

import threading
import time

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.broker.api import RunRequest
from repro.errors import (
    AdmissionDenied,
    JobCancelledError,
    JobNotFoundError,
    ServiceError,
)
from repro.harness.config import RunConfig
from repro.service.admission import AdmissionPolicy, TenantQuota
from repro.service.service import BrokerService, ServiceConfig
from repro.service.jobs import _TRANSITIONS, job_key

SEEDS = st.integers(min_value=0, max_value=2)
TENANTS = st.sampled_from(("alice", "bob"))
WAITING = ("queued", "admitted")
TERMINAL = ("done", "failed", "cancelled")
#: Jobs allowed to wait for the one worker before backpressure denies.
MAX_DEPTH = 2
POLL_S = 0.002
DEADLINE_S = 5.0


class GateFailure(RuntimeError):
    """What a run told to fail raises."""


def request(seed):
    return RunRequest(artifacts=("fig4",), config=RunConfig(seed=seed))


def until(predicate, what):
    deadline = time.monotonic() + DEADLINE_S
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(POLL_S)


class Waiter:
    """One thread blocked in ``svc.result(job_id)``."""

    def __init__(self, svc, seed, job_id):
        self.seed = seed
        self.outcome = None
        self.thread = threading.Thread(
            target=self._wait, args=(svc, job_id), daemon=True
        )
        self.thread.start()

    def _wait(self, svc, job_id):
        try:
            self.outcome = svc.result(job_id, timeout=30.0)
        except Exception as exc:  # checked against the job's final state
            self.outcome = exc

    def check(self, state):
        """The outcome a waiter on a job that ended in ``state`` gets."""
        if state == "done":
            assert self.outcome == ("ran", self.seed), self.outcome
        elif state == "failed":
            assert isinstance(self.outcome, GateFailure), self.outcome
            assert str(self.outcome) == f"seed {self.seed} told to fail"
        else:
            assert isinstance(self.outcome, JobCancelledError), self.outcome


class Lifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.lock = threading.Lock()
        self.gates: dict[int, threading.Event] = {}  # seed -> this run's gate
        self.failing: set[int] = set()
        self.ran: list[int] = []  # the seed of every run_fn call
        self.job_ids: dict[int, str] = {}
        self.waiters: dict[int, list[Waiter]] = {}
        self.ran_at_cancel: dict[int, int] = {}
        self.submitted = self.coalesced = self.denied = self.created = 0
        roomy = TenantQuota(rate_per_s=1e6, burst=10**6)
        policy = AdmissionPolicy(default_quota=roomy, max_queue_depth=MAX_DEPTH)
        self.svc = BrokerService(
            ServiceConfig(max_workers=1, policy=policy), run_fn=self.run_fn
        ).start()

    def run_fn(self, req):
        seed = req.config.seed
        with self.lock:
            self.ran.append(seed)
            gate = self.gates[seed]
        gate.wait(timeout=30.0)
        if seed in self.failing:
            raise GateFailure(f"seed {seed} told to fail")
        return ("ran", seed)

    # -- what the service holds now ------------------------------------------

    def states(self) -> dict[int, str]:
        return {seed: self.svc.status(job_id).state
                for seed, job_id in self.job_ids.items()}

    def settled(self) -> bool:
        """The one worker is held by a closed gate, or has nothing to take."""
        states = self.states()
        running = [seed for seed, state in states.items() if state == "running"]
        if running:
            return not self.gates[running[0]].is_set()
        return not any(state in WAITING for state in states.values())

    def settle(self):
        until(self.settled, "the open gates' jobs to finish")

    def join_waiters(self, seed, state):
        for waiter in self.waiters.pop(seed, []):
            waiter.thread.join(DEADLINE_S)
            assert not waiter.thread.is_alive(), f"a waiter on a {state} job"
            waiter.check(state)

    # -- rules --------------------------------------------------------------

    @rule(seed=SEEDS, tenant=TENANTS)
    def submit(self, seed, tenant):
        state = self.states().get(seed)
        fresh = state is None or state in ("failed", "cancelled")
        if fresh:
            # Every waiter on the old run has its answer before the new
            # run takes over the id.
            self.join_waiters(seed, state)
            self.gates[seed] = threading.Event()
            self.failing.discard(seed)
            self.ran_at_cancel.pop(seed, None)
        depth = self.svc.stats()["queue_depth"]
        self.submitted += 1
        try:
            receipt = self.svc.submit(request(seed), tenant=tenant)
        except AdmissionDenied as exc:
            assert fresh and depth >= MAX_DEPTH and exc.reason == "backpressure"
            self.denied += 1
            return
        assert receipt.coalesced == (not fresh)
        if fresh:
            assert depth < MAX_DEPTH
            self.created += 1
            self.job_ids[seed] = receipt.job_id
        else:
            self.coalesced += 1
            assert receipt.job_id == self.job_ids[seed]
        self.waiters.setdefault(seed, []).append(
            Waiter(self.svc, seed, receipt.job_id)
        )
        self.settle()

    @rule(seed=SEEDS)
    def cancel(self, seed):
        if seed not in self.job_ids:
            try:
                self.svc.cancel(job_key(request(seed)))
            except JobNotFoundError:
                return
            raise AssertionError("cancelled a job never submitted")
        job_id = self.job_ids[seed]
        before = self.svc.status(job_id).state
        if before == "running":
            try:
                self.svc.cancel(job_id)
            except ServiceError as exc:
                assert "cannot be cancelled" in str(exc)
            else:
                raise AssertionError("cancelled a running job")
            return
        after = self.svc.cancel(job_id).state
        assert after == ("cancelled" if before in WAITING else before)
        if before in WAITING:
            self.ran_at_cancel[seed] = self.ran.count(seed)
        self.settle()

    @rule(seed=SEEDS)
    def release(self, seed):
        if seed in self.gates:
            self.gates[seed].set()
            self.settle()

    @rule(seed=SEEDS)
    def fail(self, seed):
        if seed in self.gates:
            self.failing.add(seed)
            self.gates[seed].set()
            self.settle()

    # -- invariants ---------------------------------------------------------

    @invariant()
    def transitions_follow_the_machine(self):
        for job in self.svc.jobs():
            states = [state for state, _ in job.transitions]
            assert states[0] == "queued" and states[-1] == job.state
            for old, new in zip(states, states[1:]):
                assert new in _TRANSITIONS[old], (old, new)

    @invariant()
    def every_submission_is_counted_once(self):
        stats = self.svc.stats()
        assert stats["submitted"] == self.submitted
        assert stats["coalesced"] == self.coalesced
        assert stats["denied"] == self.denied
        assert stats["submitted"] == self.coalesced + self.denied + self.created
        assert stats["computations"] == len(self.ran)

    @invariant()
    def at_most_one_job_runs(self):
        states = list(self.states().values())
        stats = self.svc.stats()
        assert states.count("running") <= 1
        assert stats["queue_depth"] == sum(s in WAITING for s in states)
        assert stats["inflight"] == sum(s not in TERMINAL for s in states)

    @invariant()
    def a_cancelled_job_never_ran(self):
        for seed, job_id in self.job_ids.items():
            status = self.svc.status(job_id)
            if status.state == "cancelled":
                assert "running" not in [s for s, _ in status.transitions]
                assert status.started_wall is None
                assert self.ran.count(seed) == self.ran_at_cancel[seed]

    @invariant()
    def waiters_get_the_outcome(self):
        for seed, state in self.states().items():
            for waiter in self.waiters.get(seed, []):
                if state in TERMINAL:
                    waiter.thread.join(DEADLINE_S)
                    assert not waiter.thread.is_alive()
                    waiter.check(state)
                else:
                    assert waiter.outcome is None

    def teardown(self):
        stopper = threading.Thread(target=self.svc.stop)
        stopper.start()
        # stop() cancels every waiting job at once; only then may the
        # running one finish.
        until(lambda: self.svc.stats()["queue_depth"] == 0, "stop to cancel")
        for gate in self.gates.values():
            gate.set()
        stopper.join(DEADLINE_S)
        assert not stopper.is_alive(), "stop() did not return"
        stats = self.svc.stats()
        assert stats["inflight"] == 0 and stats["queue_depth"] == 0
        assert stats["done"] + stats["failed"] + stats["cancelled"] == self.created
        assert stats["computations"] == len(self.ran)
        for waiters in self.waiters.values():
            for waiter in waiters:
                waiter.thread.join(DEADLINE_S)
                assert not waiter.thread.is_alive(), "a waiter outlived stop()"
                assert waiter.outcome == ("ran", waiter.seed) or isinstance(
                    waiter.outcome, (GateFailure, JobCancelledError)
                ), waiter.outcome


TestLifecycle = Lifecycle.TestCase
TestLifecycle.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
