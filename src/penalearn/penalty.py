"""Piecewise feasibility penalties and the penalized training loss.

The total loss is objective + penalty, where the penalty charges each violated
constraint eta * (violation)^gamma.  Feasible points carry zero penalty and
zero penalty gradient, so the loss reduces to the bare objective inside the
feasible set.  An indicator mode (0 inside, a large constant per violated
constraint outside) is kept as a diagnostic: its gradient contribution is
identically zero, which is exactly why it cannot steer training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import DimensionError, NonFiniteError

Etas = Union[float, Sequence[float]]

PENALTY_MODES = ("piecewise", "indicator", "none")


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty weights and shape.

    ``eta_ineq`` / ``eta_eq`` may be a single scalar (broadcast over all
    constraints of that kind) or one weight per constraint.
    """

    mode: str = "piecewise"
    eta_ineq: Etas = 1e8
    eta_eq: Etas = 1e8
    gamma: float = 2.0
    indicator_big: float = 1e12
    eq_tolerance: float = 0.0

    def __post_init__(self):
        if self.mode not in PENALTY_MODES:
            raise ValueError(f"mode must be one of {PENALTY_MODES}, got {self.mode!r}")
        if not self.gamma >= 1.0:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if not self.indicator_big > 0:
            raise ValueError(f"indicator_big must be positive, got {self.indicator_big}")
        if self.eq_tolerance < 0:
            raise ValueError(f"eq_tolerance must be >= 0, got {self.eq_tolerance}")
        for name in ("eta_ineq", "eta_eq"):
            if np.any(np.asarray(getattr(self, name), dtype=float) < 0):
                raise ValueError(f"{name} entries must be >= 0")

    def resolved_etas(self, n_ineq: int, n_eq: int) -> tuple[np.ndarray, np.ndarray]:
        """Broadcast scalar etas to per-constraint arrays of the right length."""
        return (
            _resolve(self.eta_ineq, n_ineq, "eta_ineq"),
            _resolve(self.eta_eq, n_eq, "eta_eq"),
        )


def _resolve(eta: Etas, n: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(eta, dtype=float))
    if arr.size == 1:
        return np.full(n, arr.item())
    if arr.size != n:
        raise DimensionError(f"{name} has {arr.size} entries for {n} constraints")
    return arr


@dataclass(frozen=True)
class ConstraintEval:
    """Residuals f_i(x)-c_i / h_j(x)-b_j and their gradients in x.

    Batch layout: values are (batch, n_constraints), gradients are
    (batch, n_constraints, k).
    """

    ineq_values: np.ndarray
    eq_values: np.ndarray
    ineq_grads: np.ndarray
    eq_grads: np.ndarray

    @property
    def n_ineq(self) -> int:
        return self.ineq_values.shape[1]

    @property
    def n_eq(self) -> int:
        return self.eq_values.shape[1]


def ineq_penalty(residual, eta, gamma):
    """Penalty and d(penalty)/d(residual) for one inequality residual.

    Zero on the feasible side (residual <= 0); eta*residual^gamma outside.
    Elementwise over arrays; scalars in, scalars out.
    """
    r = np.asarray(residual, dtype=float)
    pos = np.maximum(r, 0.0)
    value = eta * pos**gamma
    # gamma >= 1 so pos**(gamma-1) is finite; at r == 0 it is 0 for gamma > 1
    # and 1 for gamma == 1, but the mask keeps the derivative one-sided (0 at 0).
    deriv = np.where(r > 0.0, eta * gamma * pos ** (gamma - 1.0), 0.0)
    if np.isscalar(residual) or np.ndim(residual) == 0:
        return float(value), float(deriv)
    return value, deriv


def eq_penalty(residual, eta, gamma):
    """Penalty and derivative for one equality residual: eta*|residual|^gamma.

    The derivative is eta*gamma*|r|^(gamma-1)*sign(r), taken as 0 at r == 0
    (the subgradient choice that keeps feasible points gradient-free).
    """
    r = np.asarray(residual, dtype=float)
    mag = np.abs(r)
    value = eta * mag**gamma
    deriv = np.where(r != 0.0, eta * gamma * mag ** (gamma - 1.0) * np.sign(r), 0.0)
    if np.isscalar(residual) or np.ndim(residual) == 0:
        return float(value), float(deriv)
    return value, deriv


def _eval_problem(x, p, problem):
    """Shape-check and evaluate objective + constraints on a batch."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if x.shape[1] != problem.decision_dim:
        raise DimensionError(
            f"x has {x.shape[1]} columns, problem decision dim is {problem.decision_dim}"
        )
    if p.shape[1] != problem.param_dim:
        raise DimensionError(
            f"p has {p.shape[1]} columns, problem param dim is {problem.param_dim}"
        )
    if x.shape[0] != p.shape[0]:
        raise DimensionError(f"batch mismatch: x rows {x.shape[0]}, p rows {p.shape[0]}")

    f0, g0 = problem.objective(x, p)
    _require_finite(f0, g0, constraint_index=None)
    ce = problem.constraint_eval(x, p)
    for i in range(ce.n_ineq):
        _require_finite(ce.ineq_values[:, i], ce.ineq_grads[:, i, :], i)
    for j in range(ce.n_eq):
        _require_finite(ce.eq_values[:, j], ce.eq_grads[:, j, :], j)
    return x, p, f0, g0, ce


def _require_finite(values, grads, constraint_index):
    bad = ~np.isfinite(np.asarray(values))
    if bad.any():
        which = "objective" if constraint_index is None else f"constraint {constraint_index}"
        raise NonFiniteError(
            f"{which} evaluated to a non-finite value",
            constraint_index=constraint_index,
            sample_index=int(np.argmax(bad)),
        )
    bad = ~np.isfinite(np.asarray(grads)).all(axis=-1)
    if bad.any():
        which = "objective" if constraint_index is None else f"constraint {constraint_index}"
        raise NonFiniteError(
            f"{which} gradient is non-finite",
            constraint_index=constraint_index,
            sample_index=int(np.argmax(bad)),
        )


def loss_terms_batch(x, p, problem, cfg: PenaltyConfig):
    """Loss breakdown over a batch: (loss, objective, penalty, grad_x).

    Shapes: x (batch, k), p (batch, d) -> loss/objective/penalty (batch,),
    grad_x (batch, k).  ``loss = objective + penalty`` holds row by row.
    """
    x, p, f0, g0, ce = _eval_problem(x, p, problem)
    if cfg.mode == "none":
        return f0, f0, np.zeros_like(f0), g0

    eta_i, eta_j = cfg.resolved_etas(ce.n_ineq, ce.n_eq)

    if cfg.mode == "indicator":
        violated = np.zeros(x.shape[0])
        if ce.n_ineq:
            violated += (ce.ineq_values > 0.0).sum(axis=1)
        if ce.n_eq:
            violated += (np.abs(ce.eq_values) > cfg.eq_tolerance).sum(axis=1)
        omega = cfg.indicator_big * violated
        # the indicator is flat on both sides of the boundary: zero gradient
        return f0 + omega, f0, omega, g0

    omega = np.zeros(x.shape[0])
    grad = g0.copy()
    if ce.n_ineq:
        values, derivs = ineq_penalty(ce.ineq_values, eta_i[None, :], cfg.gamma)
        omega += values.sum(axis=1)
        grad += np.einsum("bi,bik->bk", derivs, ce.ineq_grads)
    if ce.n_eq:
        values, derivs = eq_penalty(ce.eq_values, eta_j[None, :], cfg.gamma)
        omega += values.sum(axis=1)
        grad += np.einsum("bj,bjk->bk", derivs, ce.eq_grads)
    return f0 + omega, f0, omega, grad


def violation_report_batch(x, p, problem, eq_tolerance=0.0):
    """Worst violations per row: (max_ineq, max_eq, feasible) arrays.

    max_ineq is clamped at zero (a feasible point reports 0); feasible means
    every inequality residual <= 0 and every |equality residual| within
    ``eq_tolerance``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    p = np.atleast_2d(np.asarray(p, dtype=float))
    ce = problem.constraint_eval(x, p)
    n = x.shape[0]
    if ce.n_ineq:
        worst_ineq = ce.ineq_values.max(axis=1)
        max_ineq = np.maximum(worst_ineq, 0.0)
    else:
        worst_ineq = np.zeros(n)
        max_ineq = np.zeros(n)
    if ce.n_eq:
        max_eq = np.abs(ce.eq_values).max(axis=1)
    else:
        max_eq = np.zeros(n)
    feasible = (worst_ineq <= 0.0) & (max_eq <= eq_tolerance)
    return max_ineq, max_eq, feasible


def violation_report(x, p, problem, eq_tolerance=0.0):
    """Single-point violation summary: (max_ineq, max_eq, feasible)."""
    max_ineq, max_eq, feasible = violation_report_batch(x, p, problem, eq_tolerance)
    return float(max_ineq[0]), float(max_eq[0]), bool(feasible[0])
