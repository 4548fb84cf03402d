"""Piecewise feasibility penalties and the one penalized problem evaluator.

The total loss is objective + penalty, where the penalty charges each violated
constraint eta * (violation)^gamma, with one eta for every constraint.
Feasible points carry zero penalty and zero penalty gradient, so the loss
reduces to the bare objective inside the feasible set.
An indicator mode (0 inside, a large constant per violated constraint
outside) is kept as a diagnostic: its gradient contribution is identically
zero, which is exactly why it cannot steer training.

``loss_terms_batch`` is the one penalized evaluator of a batch of points: one
objective call and one constraint call, returned as one ``LossTerms`` record
that also carries the residuals: one ``ConstraintEval`` block, inequality
columns first, which every reader splits at ``n_ineq`` (a block of one kind
is read whole, not sliced).  Worst violations and feasibility come from its
``violations``, the penalty and its gradient from its ``penalty``.
Scorers that read values only (``training.evaluate``, the oracle's ranking in
``oracle._best``) call the problem's evaluators with ``grad=False`` instead.
Training calls it with ``strict=True`` (shapes checked, a non-finite value
raises ``NonFiniteError`` naming the constraint and the sample); the oracle
calls it with ``strict=False`` (no checks, floating-point warnings silenced,
non-finite rows come back as inf/nan and lose the line search).  Strict mode
tests the objective's and the constraints' outputs with one whole-array test
each and runs the per-constraint diagnosis only when a test fails.

``_ineq_penalty_row`` is the one other form of the penalty: one point's
inequality columns at gamma 2 on Python floats, the penalty of the oracle's
row path (``oracle._row_terms``), in ``ConstraintEval.penalty``'s order and
with its bits.  The exported ``ineq_penalty`` and ``eq_penalty`` check
``eta`` and ``gamma`` as ``PenaltyConfig`` does; the block calls their
unchecked bodies, whose weights its config has already checked.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DimensionError, NonFiniteError, all_finite, real_value, require,
                     require_real)

PENALTY_MODES = ("piecewise", "indicator")


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty weight and shape.

    ``eta`` weights every constraint, inequality or equality.  Each real
    setting is a finite real number, stored as a float.
    """

    mode: str = "piecewise"
    eta: float = 1e8
    gamma: float = 2.0
    indicator_big: float = 1e12
    eq_tolerance: float = 0.0

    def __post_init__(self):
        require(self.mode in PENALTY_MODES, "mode", self.mode, f"one of {PENALTY_MODES}")
        require_real(self, "eta", above=0)
        require_real(self, "gamma", at_least=1)
        require_real(self, "indicator_big", above=0)
        require_real(self, "eq_tolerance", at_least=0)


@dataclass(frozen=True)
class ConstraintEval:
    """Every constraint's residual at a batch of points, and its gradient in x.

    One block holds them all: ``values`` is (batch, m), and its column i is
    constraint i's residual, the ``n_ineq`` inequalities f_i(x) - c_i first,
    then the equalities h_j(x) - b_j.  ``grads`` is (batch, m, k), in the
    same column order, or ``None`` from a value-only evaluation.
    """

    values: np.ndarray
    grads: Optional[np.ndarray]
    n_ineq: int

    def _split(self, a):
        """(inequality part, equality part) of ``a``, laid out as ``values``,
        each ``None`` when it has no column; a block of one kind is its own
        part, not sliced."""
        n, m = self.n_ineq, self.values.shape[1]
        if n == m:
            return (a if m else None), None
        return (a[:, :n] if n else None), (a[:, n:] if n else a)

    def violations(self, eq_tolerance=0.0):
        """Worst violations per row: (max_ineq, max_eq, feasible) arrays.

        max_ineq is clamped at zero (a feasible point reports 0); feasible means
        every inequality residual <= 0 and every |equality residual| within
        ``eq_tolerance``.  Row maxima are taken column by column with
        ``np.maximum``: the values of ``.max(axis=1)``, NaN where it gives NaN,
        at a fraction of its cost on a tall block of a few columns.
        """
        ineq, eq = self._split(self.values)
        n = self.values.shape[0]
        worst_ineq = np.zeros(n) if ineq is None else _row_max(ineq)
        max_eq = np.zeros(n) if eq is None else _row_max(np.abs(eq))
        feasible = (worst_ineq <= 0.0) & (max_eq <= eq_tolerance)
        return np.maximum(worst_ineq, 0.0), max_eq, feasible

    def worst(self):
        """Each row's worst violation: the larger of ``violations()``'s first
        two arrays, with the bits of their ``np.maximum``; NaN where either is."""
        ineq, eq = self._split(self.values)
        if ineq is None:
            return np.zeros(self.values.shape[0]) if eq is None else _row_max(np.abs(eq))
        worst = _row_max(ineq)
        # clamped in place only where _row_max made a new array: one column is a view of values
        worst = np.maximum(worst, 0.0, out=worst if ineq.shape[1] > 1 else None)
        if eq is not None:
            np.maximum(worst, _row_max(np.abs(eq)), out=worst)
        return worst

    def penalty(self, cfg: PenaltyConfig, shift=None, grad=None):
        """(penalty per row at ``cfg``, ``grad`` + the penalty's gradient in x).

        ``shift`` (batch, m), laid out as ``values``, is added to the block
        first: the oracle's augmented-Lagrangian stages charge
        eta * max(0, r + s)^gamma and eta * |h + s|^gamma.  ``grad`` is the
        objective's (batch, k) gradient, to which the inequality term is
        added, then the equality term; ``None`` does no gradient work.
        """
        r = self.values if shift is None else self.values + shift
        r_ineq, r_eq = self._split(r)
        g_ineq, g_eq = (None, None) if grad is None else self._split(self.grads)
        omega = None  # the total: the first part added to 0.0, as a total from +0.0 is
        if cfg.mode == "indicator":
            if r_ineq is not None:
                omega = _add(omega, (r_ineq > 0.0).sum(axis=1))
            if r_eq is not None:
                omega = _add(omega, (np.abs(r_eq) > cfg.eq_tolerance).sum(axis=1))
            if omega is not None:
                # the indicator is flat on both sides of the boundary: zero gradient
                omega *= cfg.indicator_big
        else:
            if r_ineq is not None:
                values, derivs = _ineq_penalty(r_ineq, cfg.eta, cfg.gamma, grad is not None)
                omega = _add(omega, _row_sum(values))
                if grad is not None:
                    grad = grad + np.einsum("bi,bik->bk", derivs, g_ineq)
            if r_eq is not None:
                values, derivs = _eq_penalty(r_eq, cfg.eta, cfg.gamma, grad is not None)
                omega = _add(omega, _row_sum(values))
                if grad is not None:
                    grad = grad + np.einsum("bj,bjk->bk", derivs, g_eq)
        return (np.zeros(r.shape[0]) if omega is None else omega), grad


def _ineq_penalty_row(values, grads, shift, eta, grad):
    """``ConstraintEval.penalty`` of one point's inequality residuals at
    ``PenaltyConfig(eta=eta, gamma=2.0)`` and ``shift``, on Python floats:
    (penalty, ``grad`` + the penalty's gradient).

    ``values`` and ``shift`` are lists, one float per column, ``grads`` one
    gradient list per column and ``grad`` the objective's gradient list.
    The operations are the block's, in its order: pos = max(r + s, 0),
    eta * (pos * pos) per column, summed left to right from +0.0, and
    component k of the gradient gains ((0.0 + d0 * G0k) + d1 * G1k) + ...,
    as ``np.einsum`` sums it for 2 or more decision variables.  With fewer
    than 8 columns, where numpy's row sum also runs left to right, the bits
    are the block's wherever its values are finite.
    """
    if not values:
        return 0.0, grad
    omega, dg = 0.0, [0.0] * len(grad)
    for v, s, g in zip(values, shift, grads):
        r = v + s
        pos = max(r, 0.0)  # a NaN stays NaN, as np.maximum keeps it
        omega += eta * (pos * pos)
        d = eta * 2.0 * pos if r > 0.0 else 0.0
        dg = [a + d * b for a, b in zip(dg, g)]
    return omega, [a + b for a, b in zip(grad, dg)]


def _add(total, part):
    """``total + part``, in place; with no ``total`` yet, ``part + 0.0``: the
    bits of a total that starts at +0.0."""
    if total is None:
        return part + 0.0
    total += part
    return total


def _row_sum(values):
    """Row sums of a (rows, >= 1 columns) array, for a total held in ``omega``.

    ``omega + _row_sum(values)`` has the bits of ``omega + values.sum(axis=1)``:
    the two sums differ only in the sign of a zero, which adding to a total
    that starts at +0.0, and so is never -0.0, erases.  Below 8 columns numpy
    sums a row left to right, so the columns are added in that order, at a
    fraction of the cost of a short-axis reduction on a tall block; from 8
    columns on numpy sums in blocks, and ``.sum`` is kept.  One column is
    returned as a view.
    """
    m = values.shape[1]
    if m == 1:
        return values[:, 0]
    if m >= 8:
        return values.sum(axis=1)
    out = values[:, 0] + values[:, 1]
    for j in range(2, m):
        out += values[:, j]
    return out


def _row_max(values):
    """The maximum of each row of a (rows, >= 1 columns) array; one column is
    returned as a view, more as a new array."""
    if values.shape[1] == 1:
        return values[:, 0]
    out = np.maximum(values[:, 0], values[:, 1])
    for j in range(2, values.shape[1]):
        np.maximum(out, values[:, j], out=out)
    return out


def _slope(a, gamma):
    """a ** (gamma - 1); at gamma 2 that is ``a`` itself, which numpy's
    ``a ** 1.0`` would only copy."""
    return a if gamma == 2.0 else a ** (gamma - 1.0)


def ineq_penalty(residual, eta, gamma, grad=True):
    """Penalty and d(penalty)/d(residual) for one inequality residual.

    Zero on the feasible side (residual <= 0); eta*residual^gamma outside.
    Elementwise over arrays; scalars in, scalars out.  ``grad=False``
    returns ``None`` for the derivative.  ``eta`` must be a finite real > 0
    and ``gamma`` a finite real >= 1, as in ``PenaltyConfig`` (``ConfigError``
    naming the argument).
    """
    return _ineq_penalty(residual, *_weights(eta, gamma), grad)


def _weights(eta, gamma):
    """(``eta``, ``gamma``) as floats, checked as ``PenaltyConfig`` checks them."""
    return real_value("eta", eta, above=0), real_value("gamma", gamma, at_least=1)


def _ineq_penalty(residual, eta, gamma, grad):
    """``ineq_penalty`` without the checks of ``eta`` and ``gamma``."""
    r = np.asarray(residual, dtype=float)
    pos = np.maximum(r, 0.0)
    value = eta * pos**gamma
    # gamma >= 1 so pos**(gamma-1) is finite; at r == 0 it is 0 for gamma > 1
    # and 1 for gamma == 1, but the mask keeps the derivative one-sided (0 at 0).
    deriv = np.where(r > 0.0, eta * gamma * _slope(pos, gamma), 0.0) if grad else None
    if r.ndim == 0:
        return float(value), deriv if deriv is None else float(deriv)
    return value, deriv


def eq_penalty(residual, eta, gamma, grad=True):
    """Penalty and derivative for one equality residual: eta*|residual|^gamma.

    The derivative is eta*gamma*|r|^(gamma-1)*sign(r), taken as 0 at r == 0
    (the subgradient choice that keeps feasible points gradient-free);
    ``grad=False`` returns ``None`` for it.  ``eta`` and ``gamma`` are
    checked as ``ineq_penalty`` checks them.
    """
    return _eq_penalty(residual, *_weights(eta, gamma), grad)


def _eq_penalty(residual, eta, gamma, grad):
    """``eq_penalty`` without the checks of ``eta`` and ``gamma``."""
    r = np.asarray(residual, dtype=float)
    mag = np.abs(r)
    value = eta * mag**gamma
    deriv = (np.where(r != 0.0, eta * gamma * _slope(mag, gamma) * np.sign(r), 0.0)
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

    The penalty is ``ConstraintEval.penalty`` of the constraint block, at
    ``shift`` (see there); ``constraints`` keeps the unshifted residuals.
    ``grad=False`` does no gradient work: the same values, with every
    gradient field ``None``.  ``cfg`` must be a ``PenaltyConfig`` (``ConfigError``
    naming ``cfg``).
    """
    require(isinstance(cfg, PenaltyConfig), "cfg", cfg, "a PenaltyConfig")
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
        f0, g0 = problem.objective(x, p, grad=grad)
        if strict and not _all_finite(f0, g0):
            _require_finite(f0, g0, constraint_index=None)
        ce = problem.constraint_eval(x, p, grad=grad)
        if strict and not _all_finite(ce.values, ce.grads):
            for i in range(ce.values.shape[1]):  # numbered in block order
                _require_finite(ce.values[:, i], None if ce.grads is None else ce.grads[:, i], i)

        omega, g = ce.penalty(cfg, shift, g0 if grad else None)
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
