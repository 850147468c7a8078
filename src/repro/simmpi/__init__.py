"""simmpi: a virtual-time MPI runtime.

SPMD rank programs run as cooperative tasks on a deterministic
discrete-event scheduler with real message passing (mailbox
transport), so communication *semantics* are executed, not
approximated — a distributed CG over simmpi produces the same numbers a
sequential solve does.  Time, however, is *virtual*: every rank owns a
clock, computation advances it explicitly, and each message advances the
receiver to ``max(own clock, sender clock + alpha + bytes/beta)`` using
the platform's network model.  This is the standard virtual-time
trace-execution approach (SimGrid/LogGOPSim family), which lets one
machine reproduce the relative behaviour of the paper's four fabrics.

The mpi4py-style API is intentional (see the mpi4py tutorial): lowercase
``send/recv/bcast/...`` move arbitrary Python objects; numpy arrays get
a fast size path.
"""

from repro.simmpi.datatypes import (
    ANY_SOURCE,
    ANY_TAG,
    Message,
    Status,
    ReduceOp,
    SUM,
    MAX,
    MIN,
    PROD,
    payload_nbytes,
)
from repro.simmpi.clock import VirtualClock
from repro.simmpi.comm import Communicator, Request
from repro.simmpi.events import EventEngine, current_task
from repro.simmpi.launcher import SPMDResult, run_spmd
from repro.simmpi.recording import ScheduleRecording
from repro.simmpi.replay import replay_schedule
from repro.simmpi.selector import CollectiveSelector, Selection
from repro.simmpi.tracing import EventLog, TraceRecord, Tracer

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Message",
    "Status",
    "ReduceOp",
    "SUM",
    "MAX",
    "MIN",
    "PROD",
    "payload_nbytes",
    "VirtualClock",
    "CollectiveSelector",
    "Selection",
    "Communicator",
    "Request",
    "EventEngine",
    "current_task",
    "SPMDResult",
    "run_spmd",
    "ScheduleRecording",
    "replay_schedule",
    "EventLog",
    "TraceRecord",
    "Tracer",
]
