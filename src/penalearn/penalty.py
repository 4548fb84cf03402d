"""Piecewise feasibility penalties and the one penalized problem evaluator.

The total loss is objective + penalty, where the penalty charges each violated
constraint eta * (violation)^gamma, with one eta for every constraint.
Feasible points carry zero penalty and zero penalty gradient, so the loss
reduces to the bare objective inside the feasible set.
An indicator mode (0 inside, a large constant per violated constraint
outside) is kept as a diagnostic: its gradient contribution is identically
zero, which is exactly why it cannot steer training.

``loss_terms_batch`` is the single place a batch of points is evaluated: one
objective call, one constraint call, and the penalty built from them, returned
as one ``LossTerms`` record that also carries the residuals.  Worst violations
and feasibility come from ``ConstraintEval.violations`` on those residuals.
Training calls it with ``strict=True`` (shapes checked, a non-finite value
raises ``NonFiniteError`` naming the constraint and the sample); the oracle
calls it with ``strict=False`` (no checks, floating-point warnings silenced,
non-finite rows come back as inf/nan and lose the line search).  Strict mode
tests the objective's and the constraints' outputs with one whole-array test
each and runs the per-constraint diagnosis only when a test fails.
"""

from __future__ import annotations

import contextlib
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, NonFiniteError, all_finite, require

PENALTY_MODES = ("piecewise", "indicator")


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty weight and shape.

    ``eta`` weights every constraint, inequality or equality; it is one
    positive real number, stored as a float.
    """

    mode: str = "piecewise"
    eta: float = 1e8
    gamma: float = 2.0
    indicator_big: float = 1e12
    eq_tolerance: float = 0.0

    def __post_init__(self):
        require(self.mode in PENALTY_MODES, "mode", self.mode, f"one of {PENALTY_MODES}")
        require(self.gamma >= 1.0, "gamma", self.gamma, ">= 1")
        require(self.indicator_big > 0, "indicator_big", self.indicator_big, "> 0")
        require(self.eq_tolerance >= 0, "eq_tolerance", self.eq_tolerance, ">= 0")
        require(isinstance(self.eta, numbers.Real) and self.eta > 0, "eta", self.eta,
                "a real number > 0")
        object.__setattr__(self, "eta", float(self.eta))


@dataclass(frozen=True)
class ConstraintEval:
    """Residuals f_i(x)-c_i / h_j(x)-b_j and their gradients in x.

    Batch layout: values are (batch, n_constraints), gradients are
    (batch, n_constraints, k), or ``None`` from a value-only evaluation.
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


def ineq_penalty(residual, eta, gamma, grad=True):
    """Penalty and d(penalty)/d(residual) for one inequality residual.

    Zero on the feasible side (residual <= 0); eta*residual^gamma outside.
    Elementwise over arrays; scalars in, scalars out.  ``grad=False``
    returns ``None`` for the derivative.
    """
    r = np.asarray(residual, dtype=float)
    pos = np.maximum(r, 0.0)
    value = eta * pos**gamma
    # gamma >= 1 so pos**(gamma-1) is finite; at r == 0 it is 0 for gamma > 1
    # and 1 for gamma == 1, but the mask keeps the derivative one-sided (0 at 0).
    deriv = np.where(r > 0.0, eta * gamma * pos ** (gamma - 1.0), 0.0) if grad else None
    if r.ndim == 0:
        return float(value), deriv if deriv is None else float(deriv)
    return value, deriv


def eq_penalty(residual, eta, gamma, grad=True):
    """Penalty and derivative for one equality residual: eta*|residual|^gamma.

    The derivative is eta*gamma*|r|^(gamma-1)*sign(r), taken as 0 at r == 0
    (the subgradient choice that keeps feasible points gradient-free);
    ``grad=False`` returns ``None`` for it.
    """
    r = np.asarray(residual, dtype=float)
    mag = np.abs(r)
    value = eta * mag**gamma
    deriv = (np.where(r != 0.0, eta * gamma * mag ** (gamma - 1.0) * np.sign(r), 0.0)
             if grad else None)
    if r.ndim == 0:
        return float(value), deriv if deriv is None else float(deriv)
    return value, deriv


@dataclass(frozen=True)
class LossTerms:
    """One batch evaluation; every array has one entry (or row) per point.

    ``loss = objective + penalty`` holds row by row; ``grad`` is d(loss)/dx
    with shape (batch, k), or ``None`` from a value-only evaluation;
    ``constraints`` holds the residuals it came from.
    """

    loss: np.ndarray
    objective: np.ndarray
    penalty: np.ndarray
    grad: Optional[np.ndarray]
    constraints: ConstraintEval


def loss_terms_batch(x, p, problem, cfg: PenaltyConfig, strict: bool = True,
                     shift=None, grad: bool = True) -> LossTerms:
    """Penalized loss of a batch: x (batch, k), p (batch, d) -> ``LossTerms``.

    ``strict`` checks shapes and raises ``NonFiniteError`` on the first
    non-finite objective or constraint value or gradient, looked for only
    when a whole-array test fails; ``strict=False`` never raises and lets
    non-finite rows through.

    ``shift`` (batch, n_ineq + n_eq), inequality columns first, is added to
    the residuals before the penalty: the oracle's augmented-Lagrangian
    stages charge eta * max(0, r + s)^gamma and eta * |h + s|^gamma.
    ``constraints`` keeps the unshifted residuals.  ``grad=False`` does no
    gradient work: the same values, with every gradient field ``None``.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if strict:
        if x.shape[1:] != (problem.decision_dim,):
            raise DimensionError(
                f"x has shape {x.shape}, problem decision dim is {problem.decision_dim}"
            )
        if p.shape[1:] != (problem.param_dim,):
            raise DimensionError(
                f"p has shape {p.shape}, problem param dim is {problem.param_dim}"
            )
        if x.shape[0] != p.shape[0]:
            raise DimensionError(f"batch mismatch: x rows {x.shape[0]}, p rows {p.shape[0]}")
    with contextlib.nullcontext() if strict else np.errstate(all="ignore"):
        # gradient callers keep the two-argument call
        f0, g0 = problem.objective(x, p) if grad else problem.objective(x, p, grad=False)
        if strict and not _all_finite(f0, g0):
            _require_finite(f0, g0, constraint_index=None)
        ce = problem.constraint_eval(x, p, grad=grad)
        if strict and not _all_finite(ce.ineq_values, ce.ineq_grads, ce.eq_values, ce.eq_grads):
            for values, grads in ((ce.ineq_values, ce.ineq_grads), (ce.eq_values, ce.eq_grads)):
                for i in range(values.shape[1]):
                    _require_finite(values[:, i], None if grads is None else grads[:, i], i)

        r_ineq, r_eq = ce.ineq_values, ce.eq_values
        if shift is not None:
            r_ineq = r_ineq + shift[:, :ce.n_ineq] if ce.n_ineq else r_ineq
            r_eq = r_eq + shift[:, ce.n_ineq:] if ce.n_eq else r_eq
        omega = np.zeros(x.shape[0])
        g = g0 if grad else None  # d(loss)/dx
        if cfg.mode == "indicator":
            if ce.n_ineq:
                omega += (r_ineq > 0.0).sum(axis=1)
            if ce.n_eq:
                omega += (np.abs(r_eq) > cfg.eq_tolerance).sum(axis=1)
            # the indicator is flat on both sides of the boundary: zero gradient
            omega *= cfg.indicator_big
        else:
            if ce.n_ineq:
                values, derivs = ineq_penalty(r_ineq, cfg.eta, cfg.gamma, grad)
                omega += values.sum(axis=1)
                if grad:
                    g = g + np.einsum("bi,bik->bk", derivs, ce.ineq_grads)
            if ce.n_eq:
                values, derivs = eq_penalty(r_eq, cfg.eta, cfg.gamma, grad)
                omega += values.sum(axis=1)
                if grad:
                    g = g + np.einsum("bj,bjk->bk", derivs, ce.eq_grads)
        return LossTerms(f0 + omega, f0, omega, g, ce)


def _all_finite(*arrays):
    # absent (None) gradients and empty arrays have nothing to test
    return all(all_finite(a) for a in arrays if a is not None and a.size)


def _require_finite(values, grads, constraint_index):
    """Raise ``NonFiniteError`` at the first non-finite value, else gradient row."""
    bad, what = ~np.isfinite(np.asarray(values)), "evaluated to a non-finite value"
    if not bad.any() and grads is not None:
        bad, what = ~np.isfinite(np.asarray(grads)).all(axis=-1), "gradient is non-finite"
    if bad.any():
        which = "objective" if constraint_index is None else f"constraint {constraint_index}"
        raise NonFiniteError(f"{which} {what}", constraint_index=constraint_index,
                             sample_index=int(np.argmax(bad)))


def violation_report_batch(x, p, problem, eq_tolerance=0.0):
    """``ConstraintEval.violations`` of one constraint evaluation at (x, p)."""
    return problem.constraint_eval(x, p).violations(eq_tolerance)


def violation_report(x, p, problem, eq_tolerance=0.0):
    """Single-point violation summary: (max_ineq, max_eq, feasible)."""
    max_ineq, max_eq, feasible = violation_report_batch(x, p, problem, eq_tolerance)
    return float(max_ineq[0]), float(max_eq[0]), bool(feasible[0])
