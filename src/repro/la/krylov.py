"""Krylov subspace solvers implemented from scratch.

Preconditioned CG, BiCGStab and restarted GMRES with a common result
type and operation-count accounting.  The counters matter: the
performance model (:mod:`repro.perfmodel`) converts them into predicted
wall time on each target platform, and the distributed solver
(:mod:`repro.la.distributed`) reuses the same algorithm bodies with
distributed primitives substituted.

Operators and preconditioners are anything with ``matvec``/``apply``
semantics (scipy sparse matrices, LinearOperators, or our
preconditioner classes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.errors import ConvergenceError, SolverError
from repro.obs.core import current as _obs_current


@dataclass
class SolveResult:
    """Outcome of an iterative solve.

    ``iterations`` counts accepted Krylov iterations; ``residuals`` holds
    the preconditioned-residual (CG) or true-residual (BiCGStab, GMRES)
    norms per iteration, starting with the initial one.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    residuals: list[float] = field(default_factory=list)
    matvecs: int = 0
    precond_applies: int = 0
    dot_products: int = 0
    axpys: int = 0
    allreduce_rounds: int = 0

    def __repr__(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        return (
            f"SolveResult({status} in {self.iterations} its, "
            f"residual={self.residual_norm:.3e})"
        )


def _as_matvec(operator) -> Callable[[np.ndarray], np.ndarray]:
    if sp.issparse(operator):
        return lambda v: operator @ v
    if hasattr(operator, "matvec"):
        return operator.matvec
    if callable(operator):
        return operator
    raise SolverError(f"cannot interpret {type(operator).__name__} as a linear operator")


def _as_precond(preconditioner) -> Callable[[np.ndarray], np.ndarray]:
    if preconditioner is None:
        return lambda v: v
    if hasattr(preconditioner, "apply"):
        return preconditioner.apply
    if sp.issparse(preconditioner):
        return lambda v: preconditioner @ v
    if callable(preconditioner):
        return preconditioner
    raise SolverError(
        f"cannot interpret {type(preconditioner).__name__} as a preconditioner"
    )


def _check_inputs(b: np.ndarray, x0: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise SolverError(f"rhs must be a vector, got shape {b.shape}")
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    if x.shape != b.shape:
        raise SolverError(f"x0 shape {x.shape} != rhs shape {b.shape}")
    return b, x


def cg(
    operator,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    preconditioner=None,
    tol: float = 1e-10,
    maxiter: int = 1000,
    strict: bool = False,
) -> SolveResult:
    """Preconditioned conjugate gradients for SPD systems.

    Convergence is declared when ``||r|| <= tol * ||b||`` (2-norm of the
    true residual).  With ``strict=True`` a :class:`ConvergenceError` is
    raised on iteration exhaustion instead of returning the best iterate.
    """
    matvec = _as_matvec(operator)
    precond = _as_precond(preconditioner)
    b, x = _check_inputs(b, x0)

    result = SolveResult(x=x, converged=False, iterations=0, residual_norm=np.inf)
    b_norm = float(np.linalg.norm(b))
    result.dot_products += 1
    if b_norm == 0.0:
        result.x = np.zeros_like(b)
        result.converged = True
        result.residual_norm = 0.0
        result.residuals = [0.0]
        return result
    threshold = tol * b_norm

    r = b - matvec(x)
    result.matvecs += 1
    z = precond(r)
    result.precond_applies += 1
    p = z.copy()
    rz = float(r @ z)
    result.dot_products += 1
    res_norm = float(np.linalg.norm(r))
    result.dot_products += 1
    result.residuals.append(res_norm)

    for it in range(1, maxiter + 1):
        if res_norm <= threshold:
            break
        ap = matvec(p)
        result.matvecs += 1
        pap = float(p @ ap)
        result.dot_products += 1
        if pap <= 0.0:
            raise SolverError(
                f"CG breakdown: p^T A p = {pap:.3e} <= 0 (operator not SPD?)"
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        result.axpys += 2
        z = precond(r)
        result.precond_applies += 1
        rz_new = float(r @ z)
        result.dot_products += 1
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
        result.axpys += 1
        res_norm = float(np.linalg.norm(r))
        result.dot_products += 1
        result.iterations = it
        result.residuals.append(res_norm)

    result.x = x
    result.residual_norm = res_norm
    result.converged = res_norm <= threshold
    _obs_current().count(
        "krylov_iterations_total", float(result.iterations), solver="cg"
    )
    if strict and not result.converged:
        raise ConvergenceError(
            f"CG did not converge in {maxiter} iterations (residual {res_norm:.3e})",
            iterations=result.iterations,
            residual=res_norm,
        )
    return result


def bicgstab(
    operator,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    preconditioner=None,
    tol: float = 1e-10,
    maxiter: int = 1000,
    strict: bool = False,
) -> SolveResult:
    """Preconditioned BiCGStab for general (non-symmetric) systems.

    Right-preconditioned van der Vorst formulation; used for the
    advection-bearing Navier–Stokes momentum systems where CG does not
    apply.
    """
    matvec = _as_matvec(operator)
    precond = _as_precond(preconditioner)
    b, x = _check_inputs(b, x0)

    result = SolveResult(x=x, converged=False, iterations=0, residual_norm=np.inf)
    b_norm = float(np.linalg.norm(b))
    result.dot_products += 1
    if b_norm == 0.0:
        result.x = np.zeros_like(b)
        result.converged = True
        result.residual_norm = 0.0
        result.residuals = [0.0]
        return result
    threshold = tol * b_norm

    r = b - matvec(x)
    result.matvecs += 1
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    res_norm = float(np.linalg.norm(r))
    result.dot_products += 1
    result.residuals.append(res_norm)

    for it in range(1, maxiter + 1):
        if res_norm <= threshold:
            break
        rho_new = float(r_hat @ r)
        result.dot_products += 1
        if rho_new == 0.0:
            raise SolverError("BiCGStab breakdown: rho = 0")
        if it == 1:
            p = r.copy()
        else:
            beta = (rho_new / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
            result.axpys += 2
        rho = rho_new
        p_hat = precond(p)
        result.precond_applies += 1
        v = matvec(p_hat)
        result.matvecs += 1
        denom = float(r_hat @ v)
        result.dot_products += 1
        if denom == 0.0:
            raise SolverError("BiCGStab breakdown: r_hat . v = 0")
        alpha = rho / denom
        s = r - alpha * v
        result.axpys += 1
        s_norm = float(np.linalg.norm(s))
        result.dot_products += 1
        if s_norm <= threshold:
            x += alpha * p_hat
            result.axpys += 1
            res_norm = s_norm
            result.iterations = it
            result.residuals.append(res_norm)
            break
        s_hat = precond(s)
        result.precond_applies += 1
        t = matvec(s_hat)
        result.matvecs += 1
        tt = float(t @ t)
        result.dot_products += 1
        if tt == 0.0:
            raise SolverError("BiCGStab breakdown: t . t = 0")
        omega = float(t @ s) / tt
        result.dot_products += 1
        if omega == 0.0:
            raise SolverError("BiCGStab breakdown: omega = 0")
        x += alpha * p_hat + omega * s_hat
        r = s - omega * t
        result.axpys += 3
        res_norm = float(np.linalg.norm(r))
        result.dot_products += 1
        result.iterations = it
        result.residuals.append(res_norm)

    result.x = x
    result.residual_norm = res_norm
    result.converged = res_norm <= threshold
    _obs_current().count(
        "krylov_iterations_total", float(result.iterations), solver="bicgstab"
    )
    if strict and not result.converged:
        raise ConvergenceError(
            f"BiCGStab did not converge in {maxiter} iterations "
            f"(residual {res_norm:.3e})",
            iterations=result.iterations,
            residual=res_norm,
        )
    return result


def gmres(
    operator,
    b: np.ndarray,
    preconditioner=None,
    tol: float = 1e-10,
    maxiter: int = 1000,
    restart: int = 30,
    strict: bool = False,
) -> SolveResult:
    """Restarted GMRES(m) with right preconditioning.

    Arnoldi with modified Gram–Schmidt and Givens-rotation least squares,
    as in Saad's reference formulation, from a zero initial guess.
    """
    if restart < 1:
        raise SolverError(f"restart must be >= 1, got {restart}")
    matvec = _as_matvec(operator)
    precond = _as_precond(preconditioner)
    b, x = _check_inputs(b, None)

    result = SolveResult(x=x, converged=False, iterations=0, residual_norm=np.inf)
    b_norm = float(np.linalg.norm(b))
    result.dot_products += 1
    if b_norm == 0.0:
        result.x = np.zeros_like(b)
        result.converged = True
        result.residual_norm = 0.0
        result.residuals = [0.0]
        return result
    threshold = tol * b_norm

    n = b.shape[0]
    total_iters = 0
    res_norm = np.inf
    first_cycle = True

    while total_iters < maxiter:
        r = b - matvec(x)
        result.matvecs += 1
        beta = float(np.linalg.norm(r))
        result.dot_products += 1
        if first_cycle:
            result.residuals.append(beta)
            first_cycle = False
        res_norm = beta
        if beta <= threshold:
            break

        m = min(restart, maxiter - total_iters)
        v = np.zeros((m + 1, n))
        h = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        v[0] = r / beta
        k_done = 0

        for k in range(m):
            zk = precond(v[k])
            result.precond_applies += 1
            w = matvec(zk)
            result.matvecs += 1
            for i in range(k + 1):
                h[i, k] = float(w @ v[i])
                w -= h[i, k] * v[i]
                result.dot_products += 1
                result.axpys += 1
            h[k + 1, k] = float(np.linalg.norm(w))
            result.dot_products += 1
            if h[k + 1, k] > 0:
                v[k + 1] = w / h[k + 1, k]
            # Apply previous Givens rotations to the new column.
            for i in range(k):
                temp = cs[i] * h[i, k] + sn[i] * h[i + 1, k]
                h[i + 1, k] = -sn[i] * h[i, k] + cs[i] * h[i + 1, k]
                h[i, k] = temp
            denom = float(np.hypot(h[k, k], h[k + 1, k]))
            if denom == 0.0:
                cs[k], sn[k] = 1.0, 0.0
            else:
                cs[k] = h[k, k] / denom
                sn[k] = h[k + 1, k] / denom
            h[k, k] = cs[k] * h[k, k] + sn[k] * h[k + 1, k]
            h[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k_done = k + 1
            total_iters += 1
            result.iterations = total_iters
            res_norm = abs(g[k + 1])
            result.residuals.append(res_norm)
            if res_norm <= threshold:
                break

        # Solve the triangular system and update x through the preconditioner.
        if k_done > 0:
            y = np.zeros(k_done)
            for i in range(k_done - 1, -1, -1):
                y[i] = (g[i] - h[i, i + 1 : k_done] @ y[i + 1 : k_done]) / h[i, i]
            update = v[:k_done].T @ y
            x += precond(update)
            result.precond_applies += 1
            result.axpys += k_done
        if res_norm <= threshold:
            # Recompute the true residual for the final report.
            r = b - matvec(x)
            result.matvecs += 1
            res_norm = float(np.linalg.norm(r))
            result.dot_products += 1
            break

    result.x = x
    result.residual_norm = res_norm
    result.converged = res_norm <= threshold
    _obs_current().count(
        "krylov_iterations_total", float(result.iterations), solver="gmres"
    )
    if strict and not result.converged:
        raise ConvergenceError(
            f"GMRES did not converge in {maxiter} iterations "
            f"(residual {res_norm:.3e})",
            iterations=result.iterations,
            residual=res_norm,
        )
    return result
