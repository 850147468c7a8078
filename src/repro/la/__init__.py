"""Linear algebra: the Trilinos work-alike.

Iterative Krylov solvers (CG, BiCGStab, GMRES) and algebraic
preconditioners (Jacobi, SSOR, ILU(0), block-Jacobi / one-level additive
Schwarz) implemented from scratch on scipy.sparse storage, plus
distributed vectors/matrices layered over the virtual-time MPI runtime.

The paper's *step (iiia)* is preconditioner construction and *step
(iiib)* the preconditioned iterative solve; these are the corresponding
executable kernels.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.la.krylov": ("cg",),
    "repro.la.preconditioners": ("BlockJacobiPreconditioner", "ILU0Preconditioner"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
