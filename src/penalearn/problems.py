"""Parameterized benchmark landscapes with analytic gradients.

Registry entries (decision variables x in R^2 throughout):

  rosenbrock-1c   min c1*(x2-x1^2)^2 + (c2-x1)^2      s.t. x1^2+x2^2 <= 1
  rosenbrock-3c   same objective, plus x1 <= -2.5 and x2 <= -1
  ackley-1c       min -c1*exp(-c2*sqrt(c3*(x1^2+x2^2)))
                      - exp(c4*(cos(2*pi*x1)+cos(2*pi*x2))) + e + c5
                                                        s.t. x1^2+x2^2 <= 25
  ackley-3c       same objective, s.t. x1^2+x2^2 <= 1, x1 <= -2.5, x2 <= -1

Residual convention: residual = f_i(x) - c_i, satisfied iff residual <= 0.
The -3c variants have empty feasible sets as stated (x1 <= -2.5 contradicts
the unit disk); they are registered anyway as penalty-compromise stress tests
and carry ``known_infeasible=True``.

Evaluators follow ``fn(x, p, grad=True) -> (values, grads or None)`` on a
batch; ``grad=False`` returns ``(values, None)``, the values computed by the
very expressions the gradient path uses.  Every caller passes ``grad=``, and
a ``ProblemSpec`` whose evaluators cannot take it is a ``ConfigError``.
``ProblemSpec.constraint_eval`` evaluates every constraint into one residual
block, the inequalities first (``ConstraintEval``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DimensionError, RegistryError, is_int, require
from .penalty import ConstraintEval

# evaluator: (x[batch,k], p[batch,d], grad=True) -> (values[batch], grads[batch,k] or None)
Evaluator = Callable[..., tuple[np.ndarray, Optional[np.ndarray]]]


@dataclass(frozen=True)
class Constraint:
    """One constraint: evaluator plus its bound (f(x;p) <= bound, or = bound)."""

    fn: Evaluator
    bound: float


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    decision_dim: int
    param_dim: int
    objective: Evaluator
    inequalities: tuple[Constraint, ...] = ()
    equalities: tuple[Constraint, ...] = ()
    param_ranges: tuple[tuple[float, float], ...] = ()
    default_net_shape: tuple[int, ...] = ()
    known_infeasible: bool = False

    def __post_init__(self):
        if len(self.param_ranges) != self.param_dim:
            raise DimensionError(
                f"{self.name}: {len(self.param_ranges)} ranges for "
                f"{self.param_dim} parameters"
            )
        for lo, hi in self.param_ranges:
            if lo > hi:
                raise ConfigError(f"{self.name}: range low {lo} exceeds high {hi}",
                                  "param_ranges")
        evaluators = [("objective", self.objective)] + [
            (f"constraint {i}", c.fn) for i, c in enumerate(self.inequalities + self.equalities)]
        for what, fn in evaluators:
            try:
                inspect.signature(fn).bind(None, None, grad=False)
            except TypeError:
                raise ConfigError(f"{self.name}: the {what} evaluator "
                                  f"{getattr(fn, '__qualname__', fn)} cannot be called "
                                  f"as fn(x, p, grad=...)") from None

    def constraint_eval(self, x: np.ndarray, p: np.ndarray, grad: bool = True) -> ConstraintEval:
        """Evaluate every constraint on a batch into one residual block.

        Residuals are value - bound, the inequalities' columns first.  ``x``
        must have ``decision_dim`` columns (``DimensionError`` if not).
        ``grad=False`` evaluates values only and leaves ``grads`` ``None``.
        """
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        x = x if x.ndim >= 2 else np.atleast_2d(x)
        p = p if p.ndim >= 2 else np.atleast_2d(p)
        if x.shape[1:] != (self.decision_dim,):
            raise DimensionError(f"{self.name}: x has shape {x.shape}, "
                                 f"problem decision dim is {self.decision_dim}")
        cons = self.inequalities + self.equalities
        values = np.empty((x.shape[0], len(cons)))
        grads = np.empty((x.shape[0], len(cons), x.shape[1])) if grad else None
        for i, c in enumerate(cons):
            v, g = c.fn(x, p, grad=grad)
            # the difference in the evaluator's own type (float32 stays float32),
            # written into the float64 column, which broadcasts a scalar
            np.subtract(v, c.bound, values[:, i])
            if grad:
                grads[:, i] = g
        return ConstraintEval(values, grads, len(self.inequalities))


# ---------------------------------------------------------------------------
# objectives

def rosenbrock_objective(x, p, grad=True):
    x1, x2 = x[:, 0], x[:, 1]
    c1, c2 = p[:, 0], p[:, 1]
    d = x2 - x1 * x1
    e = c2 - x1
    f = c1 * d * d + e * e  # e * e has the bits of e ** 2
    if not grad:
        return f, None
    g = np.empty((len(f), 2))
    np.subtract(-4.0 * c1 * x1 * d, 2.0 * e, g[:, 0])
    np.multiply(2.0 * c1, d, g[:, 1])
    return f, g


def ackley_objective(x, p, grad=True):
    # gradient of the sqrt term is undefined at c3*(x1^2+x2^2) == 0; the zero
    # vector is returned there (valid subgradient, and the optimum in practice)
    x1, x2 = x[:, 0], x[:, 1]
    c1, c2, c3, c4, c5 = p[:, 0], p[:, 1], p[:, 2], p[:, 3], p[:, 4]
    s = x1 * x1 + x2 * x2
    u = np.sqrt(c3 * s)
    exp1 = np.exp(-c2 * u)
    w1, w2 = 2.0 * np.pi * x1, 2.0 * np.pi * x2
    cos_sum = np.cos(w1) + np.cos(w2)
    exp2 = np.exp(c4 * cos_sum)
    f = -c1 * exp1 - exp2 + np.e + c5
    if not grad:
        return f, None

    # 1 / u where u > 0, else 0; the divisor is positive or +inf, so no
    # division by zero and no NaN
    positive = u > 0.0
    inv_u = np.where(positive, 1.0 / np.where(positive, u, 1.0), 0.0)
    coef = c1 * c2 * exp1 * c3 * inv_u
    wave = 2.0 * np.pi * c4
    g = np.empty((len(f), 2))
    np.add(coef * x1, wave * np.sin(w1) * exp2, g[:, 0])
    np.add(coef * x2, wave * np.sin(w2) * exp2, g[:, 1])
    return f, g


# constraint evaluators

def disk_constraint(x, p, grad=True):
    v = x[:, 0] ** 2 + x[:, 1] ** 2
    return v, 2.0 * x if grad else None


def coordinate_constraint(index):
    def fn(x, p, grad=True):
        g = None
        if grad:
            g = np.zeros_like(x)
            g[:, index] = 1.0
        return x[:, index].copy(), g

    return fn


# ---------------------------------------------------------------------------
# registry

_ROSENBROCK_RANGES = ((0.0, 30.0), (0.0, 1.0))
_ACKLEY_RANGES = ((0.0, 30.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 30.0))
_DEEP_SHAPE_TAIL = (10, 20, 20, 20, 10, 2)


def _rosenbrock_1c():
    return ProblemSpec(
        name="rosenbrock-1c",
        decision_dim=2,
        param_dim=2,
        objective=rosenbrock_objective,
        inequalities=(Constraint(disk_constraint, 1.0),),
        param_ranges=_ROSENBROCK_RANGES,
        default_net_shape=(2, 20, 20, 2),
    )


def _rosenbrock_3c():
    return ProblemSpec(
        name="rosenbrock-3c",
        decision_dim=2,
        param_dim=2,
        objective=rosenbrock_objective,
        inequalities=(
            Constraint(disk_constraint, 1.0),
            Constraint(coordinate_constraint(0), -2.5),
            Constraint(coordinate_constraint(1), -1.0),
        ),
        param_ranges=_ROSENBROCK_RANGES,
        default_net_shape=(2,) + _DEEP_SHAPE_TAIL,
        known_infeasible=True,
    )


def _ackley_1c():
    return ProblemSpec(
        name="ackley-1c",
        decision_dim=2,
        param_dim=5,
        objective=ackley_objective,
        inequalities=(Constraint(disk_constraint, 25.0),),
        param_ranges=_ACKLEY_RANGES,
        default_net_shape=(5,) + _DEEP_SHAPE_TAIL,
    )


def _ackley_3c():
    return ProblemSpec(
        name="ackley-3c",
        decision_dim=2,
        param_dim=5,
        objective=ackley_objective,
        inequalities=(
            Constraint(disk_constraint, 1.0),
            Constraint(coordinate_constraint(0), -2.5),
            Constraint(coordinate_constraint(1), -1.0),
        ),
        param_ranges=_ACKLEY_RANGES,
        default_net_shape=(5,) + _DEEP_SHAPE_TAIL,
        known_infeasible=True,
    )


_REGISTRY = {
    "rosenbrock-1c": _rosenbrock_1c,
    "rosenbrock-3c": _rosenbrock_3c,
    "ackley-1c": _ackley_1c,
    "ackley-3c": _ackley_3c,
}


def problem_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def make_problem(name: str) -> ProblemSpec:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise RegistryError(
            f"unknown problem {name!r}; known problems: {', '.join(_REGISTRY)}"
        ) from None


# ---------------------------------------------------------------------------
# operations

def sample_params(spec: ProblemSpec, count: int, seed: int = 0) -> np.ndarray:
    """Uniform parameter samples within the spec ranges: a (count, param_dim) array.

    ``count`` must be an integer >= 1 and ``seed`` an integer >= 0 (numpy's
    integers included, a bool not), or ``ConfigError`` names the field.
    """
    require(is_int(count), "count", count, "an integer")
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}", "count")
    require(is_int(seed) and seed >= 0, "seed", seed, "an integer >= 0")
    rng = np.random.default_rng(seed)
    cols = [rng.uniform(lo, hi, size=count) for lo, hi in spec.param_ranges]
    return np.stack(cols, axis=1)
