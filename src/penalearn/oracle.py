"""Per-instance numerical solver used to score network outputs.

Two routes: an exhaustive grid scan (the independent brute-force check, viable
for decision dimension <= 3) and multi-start gradient descent on a quadratic
augmented Lagrangian (the method of multipliers: Hestenes 1969, Powell 1969;
Nocedal & Wright, *Numerical Optimization*, ch. 17).  Each stage descends
objective + eta * sum(max(0, r + s)^2) + eta * sum((h + s)^2) at a fixed
eta = 1e2, where each start row carries a residual shift ``s`` (the multiplier
is 2 * eta * s).  After a stage the shift becomes max(0, s + r) for
inequalities and s + h for equalities; a row stops once no shift moved by more
than ``feasible_tol / 10`` (then its worst violation is at most that, and no
inequality with a positive multiplier sits further inside its boundary), or
after 12 stages.  Descent runs all starts as one batch, which a start leaves
as soon as it finishes, with Barzilai-Borwein step lengths under a
nonmonotone backtracking safeguard; ``descent_lr`` is the initial and
fallback step size.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, NonFiniteError, OracleError, UnsupportedError, all_finite,
                     require, require_int)
from .penalty import PenaltyConfig, loss_terms_batch
from .penalty import violation_report_batch  # noqa: F401 -- wrapped by perfbench/layers.py:targets()
from .problems import ProblemSpec

# grid rows per evaluation: a (rows, 2) temporary is then 64 KiB, small enough
# that the scan reuses freed memory instead of first-touching fresh pages
GRID_CHUNK = 4096
_MAX_HALVINGS = 45
_NONMONOTONE_WINDOW = 10
_AL_MAX_STAGES = 12
# the box the grid spans and random starts are drawn from, in every dimension
_BOX = (-6.0, 6.0)
# a row stops once a step moves it by at most this times (1 + |x|)
_MOVE_TOL = 1e-10
# every augmented-Lagrangian stage descends at this fixed weight
_STAGE_PENALTY = PenaltyConfig(eta=1e2, gamma=2.0)
# rows that stay infeasible are ranked by objective + penalty at the training default
_RANK_PENALTY = PenaltyConfig()


@dataclass(frozen=True)
class OracleConfig:
    """Grid resolution, starts and descent budget of the oracle.

    The grid and the random starts cover the box [-6, 6] in every decision
    dimension.  A descending row stops once a step moves it by at most
    1e-10 * (1 + |x|).  ``feasible_tol`` is the worst violation a feasible
    answer may have.
    """

    grid_points_per_dim: int = 201
    starts: int = 16
    descent_steps: int = 400
    descent_lr: float = 1e-2
    feasible_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        require_int(self, "grid_points_per_dim", 2)
        require_int(self, "starts", 0)
        require_int(self, "descent_steps", 1)
        require(self.descent_lr > 0, "descent_lr", self.descent_lr, "> 0")
        require(self.feasible_tol >= 0, "feasible_tol", self.feasible_tol, ">= 0")
        require_int(self, "seed", 0)


@dataclass(frozen=True)
class OracleSolution:
    x: np.ndarray
    objective: float
    max_violation: float
    solve_time_s: float
    method: str  # "grid" (the undescended grid point won) or "descent"


def _params(spec: ProblemSpec, p) -> np.ndarray:
    """``p`` flat: ``param_dim`` values (``DimensionError``), all finite (``NonFiniteError``)."""
    p = np.asarray(p, dtype=float).ravel()
    if p.size != spec.param_dim:
        raise DimensionError(f"p has {p.size} values, {spec.name} takes {spec.param_dim}")
    if not all_finite(p):
        raise NonFiniteError(f"p {p.tolist()} is not finite")
    return p


def _rank_values(spec, P, X):
    """Values-only (f0, viol, pen) per row of ``X`` at ``P``: ``viol`` is the larger
    of the two worst violations, ``pen`` objective + penalty at the default
    ``PenaltyConfig``, and a non-finite ``f0`` or ``pen`` becomes inf."""
    terms = loss_terms_batch(X, P, spec, _RANK_PENALTY, strict=False, grad=False)
    max_ineq, max_eq, _ = terms.constraints.violations()
    f0 = np.where(np.isfinite(terms.objective), terms.objective, np.inf)
    pen = np.where(np.isfinite(terms.loss), terms.loss, np.inf)
    return f0, np.maximum(max_ineq, max_eq), pen


def _best(X, f0, viol, pen, tol) -> int:
    """The oracle's one ranking rule: the index of the best row.

    Feasible rows (``viol <= tol``, finite ``f0``) rank by ``f0``; with none,
    rows rank by ``pen``.  Ties go to the lexicographically smallest x, then
    to the first row."""
    feas = (viol <= tol) & np.isfinite(f0)
    score = np.where(feas, f0, np.inf) if feas.any() else pen
    tied = np.flatnonzero(score == score.min())
    if tied.size == 1:
        return int(tied[0])
    # lexsort is stable and sorts by its last key first
    return int(tied[np.lexsort(X[tied].T[::-1])[0]])


def _answer(spec, p, X, cfg: OracleConfig, t0, grid_first) -> OracleSolution:
    """Rank the candidates ``X`` and report the best as the answer.

    ``grid_first``: ``X[0]`` is the undescended grid point; ``method`` is
    "grid" when it wins.  ``solve_time_s`` runs from ``t0`` to now."""
    f0, viol, pen = _rank_values(spec, np.broadcast_to(p, (X.shape[0], p.size)), X)
    best = _best(X, f0, viol, pen, cfg.feasible_tol)
    return OracleSolution(x=X[best].copy(), objective=float(f0[best]),
                          max_violation=float(viol[best]), solve_time_s=time.perf_counter() - t0,
                          method="grid" if grid_first and best == 0 else "descent")


@functools.lru_cache(maxsize=4)
def _mesh(dim: int, points_per_dim: int) -> np.ndarray:
    """The scan's grid points, one per row; built once per (dimension, resolution)."""
    axis = np.linspace(*_BOX, points_per_dim)
    mesh = np.meshgrid(*[axis] * dim, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    points.flags.writeable = False
    return points


def grid_scan(spec: ProblemSpec, p, cfg: OracleConfig = OracleConfig()) -> OracleSolution:
    """Exhaustive scan of a regular grid over the box [-6, 6]^k.

    Returns the feasible grid point with the lowest objective, or, when no
    grid point is feasible, the point minimizing objective + penalty at the
    default ``PenaltyConfig`` weight; ``_best`` ranks, as in ``solve``.  The
    scan reads values only.  ``p`` is checked by ``_params``.
    """
    p = _params(spec, p)
    k = spec.decision_dim
    if k > 3:
        raise UnsupportedError(f"grid scan supports decision dim <= 3, got {k}")
    t0 = time.perf_counter()

    points = _mesh(k, cfg.grid_points_per_dim)
    P = np.broadcast_to(p, (GRID_CHUNK, p.size))
    winners = []  # each chunk's best row: (x, f0, viol, pen), as evaluated in its chunk
    for lo_idx in range(0, points.shape[0], GRID_CHUNK):
        X = points[lo_idx:lo_idx + GRID_CHUNK]
        ranks = _rank_values(spec, P[:X.shape[0]], X)
        i = _best(X, *ranks, cfg.feasible_tol)
        winners.append((X[i], *(r[i] for r in ranks)))
    X, f0, viol, pen = (np.array(column) for column in zip(*winners))
    x_best = X[_best(X, f0, viol, pen, cfg.feasible_tol)]
    # re-evaluated alone: a 1-row call need not match its row in the chunk bit for bit
    return _answer(spec, p, x_best[None, :], cfg, t0, grid_first=True)


def _descend_batch(spec, p, X0, shift, cfg: OracleConfig):
    """Run every start through nonmonotone BB descent on one stage's loss.

    The loss is the stage penalty with each row's residual ``shift``.  Rows
    finish (line-search failure, zero gradient, or sub-tolerance move)
    independently; a finished row's point and residuals are written out and
    it leaves the working arrays.  No row's arithmetic depends on another's,
    so its bits do not depend on which rows descend beside it.  Returns the
    final points, a per-row finite flag, and the unshifted residuals at the
    final points (inequality columns first, as ``shift``).
    """
    P = np.broadcast_to(p, (X0.shape[0], p.size))

    def fg(X, S):
        terms = loss_terms_batch(X, P[:X.shape[0]], spec, _STAGE_PENALTY, strict=False,
                                 shift=S)
        ce = terms.constraints
        R = (ce.eq_values if not ce.n_ineq else ce.ineq_values if not ce.n_eq
             else np.hstack([ce.ineq_values, ce.eq_values]))
        return terms.loss, terms.grad, R

    X = X0.copy()
    F, G, R = fg(X, shift)
    ok = np.isfinite(F) & np.isfinite(G).all(axis=1)
    # row norms as np.linalg.norm(A, axis=1) computes them on real input, minus its dispatch
    G0 = np.where(ok[:, None], G, 0.0)
    step = cfg.descent_lr / (1.0 + np.sqrt((G0 * G0).sum(axis=1)))
    X_out, R_out = X.copy(), R.copy()  # each row's final point and residuals
    rows = np.arange(X.shape[0])  # the working rows' places in X_out
    gnorm2 = np.einsum("ij,ij->i", G, G)
    live = ok & (gnorm2 > 0.0)
    history = np.full((_NONMONOTONE_WINDOW, X.shape[0]), np.inf)
    history[0] = F
    hist_pos = 1

    for _ in range(cfg.descent_steps):
        if not live.all():
            X_out[rows[~live]], R_out[rows[~live]] = X[~live], R[~live]
            rows, X, F, G, R, shift, step, gnorm2 = (
                a[live] for a in (rows, X, F, G, R, shift, step, gnorm2))
            history = history[:, live]
        if not rows.size:
            break
        ref = history.max(axis=0)
        t = step  # halved in place; step is rebuilt below
        new = None
        idx = slice(None)  # the first trial covers every working row
        for _ in range(_MAX_HALVINGS):
            Xt = X[idx] - t[idx, None] * G[idx]
            Ft, Gt, Rt = fg(Xt, shift[idx])
            good = (np.isfinite(Ft) & np.isfinite(Gt).all(axis=1)
                    & (Ft <= ref[idx] - 1e-4 * t[idx] * gnorm2[idx]))
            if new is None:
                if good.all():  # the common case: the trial is the new state
                    new, accepted = (Xt, Ft, Gt, Rt), good
                    break
                new = (X.copy(), F.copy(), G.copy(), R.copy())
                accepted = np.zeros(X.shape[0], dtype=bool)
                idx = np.arange(X.shape[0])
            gi = idx[good]
            for a, b in zip(new, (Xt, Ft, Gt, Rt)):
                a[gi] = b[good]
            accepted[gi] = True
            idx = idx[~good]
            if not idx.size:
                break
            t[idx] *= 0.5
        S = new[0] - X
        Y = new[2] - G
        sy = np.einsum("ij,ij->i", S, Y)
        yy = np.einsum("ij,ij->i", Y, Y)
        with np.errstate(all="ignore"):
            bb = np.where((sy > 0.0) & (yy > 0.0), sy / np.where(yy > 0.0, yy, 1.0), t * 2.0)
        step = np.minimum(np.maximum(bb, 1e-14), 1e3)  # np.clip, at less fixed cost

        moved = np.sqrt((S * S).sum(axis=1))
        X, F, G, R = new
        history[hist_pos] = F
        hist_pos = (hist_pos + 1) % _NONMONOTONE_WINDOW
        gnorm2 = np.einsum("ij,ij->i", G, G)
        # a row whose line search failed (converged or stuck) keeps its point and ends
        live = (accepted & (gnorm2 > 0.0)
                & (moved > _MOVE_TOL * (1.0 + np.sqrt((X * X).sum(axis=1)))))

    X_out[rows], R_out[rows] = X, R
    return X_out, ok, R_out


def solve(spec: ProblemSpec, p, cfg: OracleConfig = OracleConfig()) -> OracleSolution:
    """Multi-start descent on an augmented Lagrangian, checked against the grid.

    Starts are sampled uniformly in the box [-6, 6]^k (seeded), plus one start
    from the grid scan when the dimension permits.  Each start runs up to 12
    multiplier stages of ``descent_steps`` BB steps at eta = 1e2, and stops
    once a stage moves none of its shifts by more than ``feasible_tol / 10``.
    The final iterates and the undescended grid point are ranked as in
    ``grid_scan`` (``_best``): feasible first, then by objective, so the
    result is never worse than ``grid_scan``; with no feasible candidate, by
    objective + penalty at the default ``PenaltyConfig`` (a least-penalty
    compromise).  ``method`` says whether the grid point or a descent won;
    ``solve_time_s`` is the whole call's clock, grid scan included, and the
    bench's ``t_oracle_ns``.  ``p`` is checked by ``_params``.
    """
    p = _params(spec, p)
    k = spec.decision_dim
    t0 = time.perf_counter()

    rng = np.random.default_rng(cfg.seed)
    lo, hi = _BOX
    starts = [lo + (hi - lo) * rng.random(k) for _ in range(cfg.starts)]
    grid_x = grid_scan(spec, p, cfg).x if k <= 3 else None
    if grid_x is not None:
        starts.append(grid_x)
    if not starts:
        raise OracleError(f"no starting points configured for {spec.name}")

    X = np.stack(starts)
    n_ineq = len(spec.inequalities)
    shift = np.zeros((X.shape[0], n_ineq + len(spec.equalities)))
    ok = np.ones(X.shape[0], dtype=bool)
    running = ok.copy()
    for _ in range(_AL_MAX_STAGES):
        idx = np.flatnonzero(running)
        X[idx], stage_ok, R = _descend_batch(spec, p, X[idx], shift[idx], cfg)
        ok[idx] &= stage_ok
        before = shift[idx]
        shift[idx, :n_ineq] = np.maximum(0.0, before[:, :n_ineq] + R[:, :n_ineq])
        shift[idx, n_ineq:] = before[:, n_ineq:] + R[:, n_ineq:]
        # a shift moves by its constraint's violation, or by how far an
        # inequality with a positive multiplier sits inside its boundary
        settled = (np.abs(shift[idx] - before) <= cfg.feasible_tol / 10).all(axis=1)
        running[idx] = ok[idx] & ~settled
        if not running.any():
            break
    if not ok.any():
        raise OracleError(f"all {X.shape[0]} starts diverged on {spec.name} at params "
                          f"{p.tolist()}: no start had a finite loss and gradient")

    # the grid point goes first: it wins ties, so method == "grid" iff x is it
    X = X[ok] if grid_x is None else np.vstack([grid_x[None, :], X[ok]])
    return _answer(spec, p, X, cfg, t0, grid_first=grid_x is not None)
