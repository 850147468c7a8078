"""Backward Difference Formula (BDF) time discretization.

The paper discretizes the time derivative of both test problems with a
second-order BDF.  We implement orders 1-3 in the normalized form

    du/dt |_{t^{n+1}}  ≈  ( alpha0 * u^{n+1} - sum_i beta_i * u^{n+1-i} ) / dt

together with the matching polynomial extrapolation of history values to
``t^{n+1}`` (used to linearize the Navier–Stokes advection term, exactly
as LifeV's semi-implicit scheme does).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError

# alpha0 and history weights beta_i for uniform steps.
_BDF_COEFFS: dict[int, tuple[float, tuple[float, ...]]] = {
    1: (1.0, (1.0,)),
    2: (1.5, (2.0, -0.5)),
    3: (11.0 / 6.0, (3.0, -1.5, 1.0 / 3.0)),
}

# Extrapolation weights: u*(t^{n+1}) ~= sum_i gamma_i u^{n+1-i}.
_EXTRAP_COEFFS: dict[int, tuple[float, ...]] = {
    1: (1.0,),
    2: (2.0, -1.0),
    3: (3.0, -3.0, 1.0),
}


class BDF:
    """Uniform-step BDF scheme of a given order with state history.

    Usage::

        bdf = BDF(order=2, dt=0.1)
        bdf.initialize([u0, u1])          # oldest first
        lhs_coeff = bdf.alpha0 / bdf.dt   # multiplies M u^{n+1}
        rhs = bdf.history_rhs() / bdf.dt  # goes to the right-hand side
        ...solve for u_new...
        bdf.advance(u_new)
    """

    def __init__(self, order: int, dt: float):
        if order not in _BDF_COEFFS:
            raise SolverError(f"BDF order must be in {sorted(_BDF_COEFFS)}, got {order}")
        if dt <= 0:
            raise SolverError(f"time step must be positive, got {dt}")
        self.order = order
        self.dt = float(dt)
        self.alpha0, self.betas = _BDF_COEFFS[order]
        self.gammas = _EXTRAP_COEFFS[order]
        self._history: list[np.ndarray] = []  # newest first

    @property
    def ready(self) -> bool:
        """True once enough history is present to take a step."""
        return len(self._history) >= self.order

    @property
    def history(self) -> tuple[np.ndarray, ...]:
        """The stored states, newest first (what a restart checkpoints)."""
        return tuple(self._history)

    def initialize(self, states_oldest_first: list[np.ndarray]) -> None:
        """Seed the scheme with ``order`` known states (oldest first)."""
        if len(states_oldest_first) != self.order:
            raise SolverError(
                f"BDF{self.order} needs exactly {self.order} initial states, "
                f"got {len(states_oldest_first)}"
            )
        self._history = [np.asarray(s, dtype=float).copy() for s in reversed(states_oldest_first)]

    def history_rhs(self) -> np.ndarray:
        """``sum_i beta_i u^{n+1-i}`` — multiply by ``M / dt`` for the RHS."""
        self._require_ready()
        out = self.betas[0] * self._history[0]
        for beta, state in zip(self.betas[1:], self._history[1:]):
            out = out + beta * state
        return out

    def extrapolate(self) -> np.ndarray:
        """Polynomial extrapolation of the history to ``t^{n+1}``.

        Order-matched: exact for polynomials of degree ``order - 1``.
        """
        self._require_ready()
        out = self.gammas[0] * self._history[0]
        for gamma, state in zip(self.gammas[1:], self._history[1:]):
            out = out + gamma * state
        return out

    def advance(self, new_state: np.ndarray) -> None:
        """Push ``u^{n+1}`` into the history, discarding the oldest state."""
        self._require_ready()
        self._history.insert(0, np.asarray(new_state, dtype=float).copy())
        del self._history[self.order:]

    def latest(self) -> np.ndarray:
        """The most recent state."""
        self._require_ready()
        return self._history[0]

    def _require_ready(self) -> None:
        if not self.ready:
            raise SolverError(
                f"BDF{self.order} history not initialized "
                f"({len(self._history)}/{self.order} states)"
            )


def bdf_truncation_order(order: int) -> int:
    """Degree of t-polynomials the scheme differentiates exactly.

    BDF of order ``k`` is exact on polynomials of degree ``<= k``; for the
    paper's RD test (solution quadratic in t) BDF2 therefore commits *no*
    time-discretization error — which is what makes the manufactured
    solution an exactness check rather than merely a convergence check.
    """
    if order not in _BDF_COEFFS:
        raise SolverError(f"BDF order must be in {sorted(_BDF_COEFFS)}, got {order}")
    return order
