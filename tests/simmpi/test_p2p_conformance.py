"""Point-to-point conformance: irregular traffic the bulk-synchronous apps
never send, checked against the message log.

The workload follows an agent-migration day loop (per-destination
aggregation with end-of-day termination, after pyrhea's
``NetworkInterface``): each day every rank moves a random number of
agents to random ranks, aggregates them per destination into capped
chunks, and sends the chunks plus one end-of-day marker per peer with
``isend``.
Receivers take each round's traffic with ``ANY_SOURCE`` receives until
the marker arrives.  A ring exchange of the day's totals then runs
``isend`` / ``irecv`` / ``waitall`` -- on a ``dup``'d communicator whose
tag 0 collides with a world-communicator tag-0 message taken in the
opposite order, with a ``probe`` before the world receive.  The
*portable* variant keeps everything on the world communicator without
``probe``, so its schedule can be recorded and replayed.

Each round has a single sender per receiver and tag, so every
``ANY_SOURCE`` match is deterministic under both engines, which is what
lets the thread-per-rank reference agree with the event engine on
returns, clocks and the whole rank-major event log.
"""

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simmpi import ANY_SOURCE, Communicator, replay_schedule, run_spmd
from repro.simmpi.launcher import default_topology
from repro.simmpi.tracing import RECV, SEND

#: Agents per aggregated message; a bigger bucket is split into chunks.
CHUNK = 4
#: Ring tag of the day's totals (every data tag is above it).
TOTALS_TAG = 0


def _day_tag(day: int, shift: int, size: int) -> int:
    return 1 + day * size + shift


def conformance_program(comm, seed: int, days: int, portable: bool):
    """One rank of the day loop; returns (agents sent, agents received,
    checksum of sent agents, checksum of received agents, the left
    neighbour's running totals)."""
    size, rank = comm.size, comm.rank
    rng = random.Random(seed * 7919 + rank)
    ring = comm if portable else comm.dup()
    left, right = (rank - 1) % size, (rank + 1) % size
    sent = received = sent_sum = received_sum = 0
    totals = []
    for day in range(days):
        comm.compute(rng.uniform(1e-6, 5e-5), label="day")
        outgoing: dict[int, list[int]] = {}
        for _ in range(rng.randrange(3 * size + 1)):
            outgoing.setdefault(rng.randrange(size), []).append(rng.randrange(1 << 16))
        outgoing.pop(rank, None)  # agents staying home travel nowhere
        requests = []
        for shift in range(1, size):
            dest = (rank + shift) % size
            tag = _day_tag(day, shift, size)
            agents = outgoing.get(dest, [])
            sent += len(agents)
            sent_sum = (sent_sum + sum(agents)) % (1 << 31)
            for lo in range(0, len(agents), CHUNK):
                chunk = np.array(agents[lo:lo + CHUNK], dtype=np.int64)
                requests.append(comm.isend(chunk, dest, tag))
            requests.append(comm.isend(("end-of-day", len(agents)), dest, tag))
        for shift in range(1, size):
            tag = _day_tag(day, shift, size)
            got = 0
            while True:
                payload, status = comm.recv_status(source=ANY_SOURCE, tag=tag)
                assert status.source == (rank - shift) % size
                if isinstance(payload, tuple):
                    assert payload == ("end-of-day", got)
                    break
                got += payload.size
                received_sum = (received_sum + int(payload.sum())) % (1 << 31)
            received += got
        Communicator.waitall(requests)

        # Totals ring; off the portable path a world tag-0 twin of a
        # different size is sent first and received last.
        if not portable:
            comm.send(np.zeros(3 + day, dtype=np.uint8), right, tag=TOTALS_TAG)
        send = ring.isend(np.full(1 + received % 5, received, dtype=np.int64),
                          right, tag=TOTALS_TAG)
        recv = ring.irecv(source=ANY_SOURCE, tag=TOTALS_TAG)
        left_totals, _ = Communicator.waitall([recv, send])
        totals.append(int(left_totals[0]))
        if not portable:
            status = comm.probe(source=ANY_SOURCE, tag=TOTALS_TAG)
            assert (status.source, status.nbytes) == (left, 3 + day)
            comm.recv(source=left, tag=TOTALS_TAG)
    return sent, received, sent_sum, received_sum, tuple(totals)


def _run(p, seed, days, portable, engine, **observers):
    return run_spmd(
        conformance_program, p, topology=default_topology(p),
        kwargs={"seed": seed, "days": days, "portable": portable},
        engine=engine, trace=True, causal=True, real_timeout=60.0, **observers,
    )


def _log(result):
    return [list(result.tracer.log.rank(r)) for r in range(result.num_ranks)]


def _assert_identities(log):
    """Every receive names a send with its world endpoints, tag and size."""
    receives = 0
    for rank, events in enumerate(log):
        for ev in events:
            if ev[0] != RECV:
                continue
            receives += 1
            sender, tag, nbytes, seq = ev[1], ev[2], ev[3], ev[6]
            send = log[sender][seq]
            assert send[0] == SEND
            assert (send[1], send[2], send[3]) == (rank, tag, nbytes)
    sends = sum(1 for events in log for ev in events if ev[0] == SEND)
    assert receives == sends


programs = st.fixed_dictionaries({
    "p": st.sampled_from((1, 2, 3, 5, 7, 12)),
    "seed": st.integers(0, 2**16),
    "days": st.integers(1, 3),
    "portable": st.booleans(),
})


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs)
def test_engines_agree_and_messages_pair_by_identity(program):
    runs = {engine: _run(engine=engine, **program) for engine in ("events", "threads")}
    events, threads = runs["events"], runs["threads"]
    assert events.returns == threads.returns
    assert events.clocks == threads.clocks
    assert _log(events) == _log(threads)
    p = program["p"]
    sent, received, sent_sum, received_sum, totals = zip(*events.returns)
    assert sum(sent) == sum(received)  # every agent arrives exactly once
    assert sum(sent_sum) % (1 << 31) == sum(received_sum) % (1 << 31)
    assert [t[-1] for t in totals] == [received[(r - 1) % p] for r in range(p)]
    for result in runs.values():
        _assert_identities(_log(result))
        report = result.causal.check(result.tracer)
        assert report.ok, report.format()


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(p=st.sampled_from((1, 2, 3, 5, 7, 12)), seed=st.integers(0, 2**16),
       days=st.integers(1, 3), engine=st.sampled_from(("events", "threads")))
def test_portable_variant_replays_bit_exactly(p, seed, days, engine):
    captured = _run(p, seed, days, True, engine, record_schedule=True)
    assert captured.recording is not None
    replayed = replay_schedule(captured.recording, topology=default_topology(p),
                               engine=engine)
    assert replayed.clocks == captured.clocks
    assert replayed.bytes_sent == captured.bytes_sent


def test_dup_and_probe_make_the_schedule_unrecordable():
    result = _run(3, 1, 1, False, "events", record_schedule=True)
    assert result.recording is None
