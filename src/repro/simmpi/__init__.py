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

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.simmpi.launcher": ("run_spmd",),
    "repro.simmpi.replay": ("replay_schedule",),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
