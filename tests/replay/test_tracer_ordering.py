"""Recording determinism at scale: op order is stable run to run.

The recorder hooks ride in each rank's own execution context (like the
tracer), so at p >= 512 under the event engine two captures of the same
program must freeze byte-identical recordings — same per-rank op order,
same resolved algorithms — and the recording's algorithm accounting
must agree with the launch's own ``SPMDResult.algorithm_counts``.
"""

from collections import Counter

import pytest

from repro.simmpi.launcher import default_topology, run_spmd

P = 512
ROUNDS = 2


def _rank_main(comm, rounds):
    """Cheap but collective-heavy: compute, auto allreduce, barrier."""
    total = 0.0
    for i in range(rounds):
        comm.compute(1e-7 * (comm.rank + 1), label="tick")
        total += comm.allreduce(float(comm.rank), site="ordering-test")
        comm.barrier()
    return total


def _capture():
    return run_spmd(
        _rank_main,
        P,
        topology=default_topology(P),
        args=(ROUNDS,),
        trace=True,
        record_schedule=True,
        real_timeout=300.0,
        engine="events",
    )


@pytest.fixture(scope="module")
def runs():
    return _capture(), _capture()


def test_recordings_byte_identical_across_runs(runs):
    a, b = runs
    assert a.recording is not None and b.recording is not None
    assert a.recording.to_bytes() == b.recording.to_bytes()


def test_tracer_snapshots_identical_across_runs(runs):
    """The tracer's rank-major merge (the replay source of truth) is
    deterministic too: same records, same order, same virtual stamps."""
    a, b = runs
    assert a.tracer.snapshot() == b.tracer.snapshot()


def test_results_agree_with_recording(runs):
    result, _ = runs
    rec = result.recording
    assert rec.num_ranks == P
    assert rec.algorithm_counts() == result.algorithm_counts
    # Every rank joins every round: rounds x (1 allreduce + 1 barrier).
    assert Counter(op[1] for ops in rec.ops for op in ops if op[0] == "k") == {
        "allreduce": P * ROUNDS, "barrier": P * ROUNDS,
    }
    assert sum(op[0] == "c" for ops in rec.ops for op in ops) >= P * ROUNDS


def test_per_rank_op_streams_start_with_the_compute(runs):
    result, _ = runs
    for rank_ops in result.recording.ops:
        assert rank_ops[0][0] == "c" and rank_ops[0][2] == "tick"


def test_auto_allreduce_decisions_recorded_per_round(runs):
    result, _ = runs
    rec = result.recording
    for rank_decisions in rec.algorithms:
        allreduces = [d for d in rank_decisions if d[0] == "allreduce"]
        assert len(allreduces) == ROUNDS
        for _coll, algorithm, nbytes, auto, _seg in allreduces:
            assert auto and algorithm != "auto" and nbytes > 0
