"""Piecewise feasibility penalties and the one penalized problem evaluator.

The total loss is objective + penalty, where the penalty charges each violated
constraint eta * (violation)^gamma.  Feasible points carry zero penalty and
zero penalty gradient, so the loss reduces to the bare objective inside the
feasible set.  An indicator mode (0 inside, a large constant per violated
constraint outside) is kept as a diagnostic: its gradient contribution is
identically zero, which is exactly why it cannot steer training.

``loss_terms_batch`` is the single place a batch of points is evaluated: one
objective call, one constraint call, and the penalty built from them, returned
as one ``LossTerms`` record that also carries the residuals.  Worst violations
and feasibility come from ``ConstraintEval.violations`` on those residuals.
Training calls it with ``strict=True`` (shapes checked, a non-finite value
raises ``NonFiniteError`` naming the constraint and the sample); the oracle
calls it with ``strict=False`` (no checks, floating-point warnings silenced,
non-finite rows come back as inf/nan and lose the line search).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DimensionError, NonFiniteError

Etas = Union[float, Sequence[float]]

PENALTY_MODES = ("piecewise", "indicator")


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
            arr = np.array(getattr(self, name), dtype=float, ndmin=1)
            if np.any(arr < 0):
                raise ValueError(f"{name} entries must be >= 0")
            # a single weight is kept as a float: it broadcasts to the same
            # bits as a per-constraint array, without one on every evaluation
            object.__setattr__(self, f"_{name}", arr.item() if arr.size == 1 else arr)

    def resolved_etas(self, n_ineq: int, n_eq: int):
        """(ineq, eq) weights for n_ineq / n_eq constraints.

        Each is a float when one weight covers every constraint of its kind,
        else an array with one entry per constraint (``DimensionError`` when
        the count differs).
        """
        return (
            _resolve(self._eta_ineq, n_ineq, "eta_ineq"),
            _resolve(self._eta_eq, n_eq, "eta_eq"),
        )


def _resolve(eta, n: int, name: str):
    if isinstance(eta, np.ndarray) and eta.size != n:
        raise DimensionError(f"{name} has {eta.size} entries for {n} constraints")
    return eta


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

    def violations(self, eq_tolerance=0.0):
        """Worst violations per row: (max_ineq, max_eq, feasible) arrays.

        max_ineq is clamped at zero (a feasible point reports 0); feasible means
        every inequality residual <= 0 and every |equality residual| within
        ``eq_tolerance``.
        """
        n = self.ineq_values.shape[0]
        worst_ineq = self.ineq_values.max(axis=1) if self.n_ineq else np.zeros(n)
        max_eq = np.abs(self.eq_values).max(axis=1) if self.n_eq else np.zeros(n)
        feasible = (worst_ineq <= 0.0) & (max_eq <= eq_tolerance)
        return np.maximum(worst_ineq, 0.0), max_eq, feasible


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


@dataclass(frozen=True)
class LossTerms:
    """One batch evaluation; every array has one entry (or row) per point.

    ``loss = objective + penalty`` holds row by row; ``grad`` is d(loss)/dx
    with shape (batch, k); ``constraints`` holds the residuals it came from.
    """

    loss: np.ndarray
    objective: np.ndarray
    penalty: np.ndarray
    grad: np.ndarray
    constraints: ConstraintEval


def loss_terms_batch(x, p, problem, cfg: PenaltyConfig, strict: bool = True) -> LossTerms:
    """Penalized loss of a batch: x (batch, k), p (batch, d) -> ``LossTerms``.

    ``strict`` checks shapes and raises ``NonFiniteError`` on the first
    non-finite objective or constraint value or gradient; ``strict=False``
    never raises and lets non-finite rows through.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if strict:
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
    with contextlib.nullcontext() if strict else np.errstate(all="ignore"):
        f0, g0 = problem.objective(x, p)
        if strict:
            _require_finite(f0, g0, constraint_index=None)
        ce = problem.constraint_eval(x, p)
        if strict:
            for i in range(ce.n_ineq):
                _require_finite(ce.ineq_values[:, i], ce.ineq_grads[:, i, :], i)
            for j in range(ce.n_eq):
                _require_finite(ce.eq_values[:, j], ce.eq_grads[:, j, :], j)

        eta_i, eta_j = cfg.resolved_etas(ce.n_ineq, ce.n_eq)
        omega = np.zeros(x.shape[0])
        grad = g0.copy()
        if cfg.mode == "indicator":
            if ce.n_ineq:
                omega += (ce.ineq_values > 0.0).sum(axis=1)
            if ce.n_eq:
                omega += (np.abs(ce.eq_values) > cfg.eq_tolerance).sum(axis=1)
            # the indicator is flat on both sides of the boundary: zero gradient
            omega *= cfg.indicator_big
        else:
            if ce.n_ineq:
                values, derivs = ineq_penalty(ce.ineq_values, eta_i, cfg.gamma)
                omega += values.sum(axis=1)
                grad += np.einsum("bi,bik->bk", derivs, ce.ineq_grads)
            if ce.n_eq:
                values, derivs = eq_penalty(ce.eq_values, eta_j, cfg.gamma)
                omega += values.sum(axis=1)
                grad += np.einsum("bj,bjk->bk", derivs, ce.eq_grads)
        return LossTerms(f0 + omega, f0, omega, grad, ce)


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


def violation_report_batch(x, p, problem, eq_tolerance=0.0):
    """``ConstraintEval.violations`` of one constraint evaluation at (x, p)."""
    return problem.constraint_eval(x, p).violations(eq_tolerance)


def violation_report(x, p, problem, eq_tolerance=0.0):
    """Single-point violation summary: (max_ineq, max_eq, feasible)."""
    max_ineq, max_eq, feasible = violation_report_batch(x, p, problem, eq_tolerance)
    return float(max_ineq[0]), float(max_eq[0]), bool(feasible[0])
