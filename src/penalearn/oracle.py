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
after 12 stages.  ``solve`` descends the grid start alone first and runs the
seeded random starts only when that answer is not certified: feasible, with a
first-order (KKT) residual of at most 1e-6 (``kkt_residual``; ch. 12).  The
certificate is local, not global.  Descent runs its starts as one batch,
which a start leaves as soon as it finishes, with Barzilai-Borwein step
lengths under a nonmonotone backtracking safeguard (Grippo, Lampariello &
Lucidi 1986): a stage's step k (from 0) passes its Armijo test against the
largest of the last min(k + 1, 10) losses, the stage's start loss included.
``descent_lr`` is the initial and fallback step size.  A row whose first
trial fails tries its next halvings, up to 8 in one evaluation, and takes
the first that passes, with the bits of halving one trial at a time.  A lone
start of fewer than 8 columns, such as the grid start that every certified
solve descends, runs the same iteration on Python floats, with the same bits
and without numpy's fixed cost per call on its 1-element arrays.

One function, ``_best``, ranks the grid scan's points and ``solve``'s final
candidates: feasible first, then by objective, and with no feasible
candidate by objective + penalty.  It evaluates the constraints once at every
candidate and the objective only where they hold; with no feasible candidate
it evaluates the objective everywhere and adds the penalty of each kept
residual block.  The answer's values are the ones the ranking computed.
``grid_scan`` and ``solve`` run with numpy's floating-point warnings
silenced: the oracle ranks overflowed and NaN values as non-finite.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, NonFiniteError, OracleError, UnsupportedError, all_finite,
                     real_value, require, require_int, require_real)
from .penalty import ConstraintEval, PenaltyConfig, _row_max, loss_terms_batch
from .penalty import violation_report_batch  # noqa: F401 -- wrapped by perfbench/layers.py:targets()
from .problems import ProblemSpec

# grid rows per evaluation: a (rows, 2) temporary is then 64 KiB, small enough
# that the scan reuses freed memory instead of first-touching fresh pages
GRID_CHUNK = 4096
# line-search trials per BB step: the first trial, then up to 44 halvings
_MAX_HALVINGS = 45
# a row whose first trial fails tries up to this many of its next halvings per evaluation
_HALVINGS_PER_EVAL = 8
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
# a feasible answer whose KKT residual is at most this is certified
_KKT_BOUND = 1e-6


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
        require_real(self, "descent_lr", above=0)
        require_real(self, "feasible_tol", at_least=0)
        require_int(self, "seed", 0)


@dataclass(frozen=True)
class OracleSolution:
    x: np.ndarray
    objective: float
    max_violation: float
    solve_time_s: float
    method: str  # "grid" (the undescended grid point won) or "descent"
    certified: bool = False  # feasible with a KKT residual at most 1e-6 (``solve`` only)


def _params(spec: ProblemSpec, p) -> np.ndarray:
    """``p`` flat: ``param_dim`` values (``DimensionError``), all finite (``NonFiniteError``)."""
    p = np.asarray(p, dtype=float).ravel()
    if p.size != spec.param_dim:
        raise DimensionError(f"p has {p.size} values, {spec.name} takes {spec.param_dim}")
    if not all_finite(p):
        raise NonFiniteError(f"p {p.tolist()} is not finite")
    return p


def _lowest(X, score) -> int:
    """The index of the lowest ``score``; ties go to the lexicographically
    smallest x, then to the first row."""
    i = int(score.argmin())  # the first lowest
    tied = score == score[i]
    if np.count_nonzero(tied) == 1:
        return i
    tied = tied.nonzero()[0]
    # lexsort is stable and sorts by its last key first
    return int(tied[np.lexsort(X[tied].T[::-1])[0]])


def _best(spec, p, chunks, tol):
    """The oracle's one ranking rule over the rows of the candidate blocks ``chunks``.

    Returns ``(chunk, row, objective, worst violation)`` of the best row.
    Feasible rows (worst violation at most ``tol``, finite objective) rank by
    objective; with none, every row ranks by objective + penalty at the
    default ``PenaltyConfig``, non-finite as inf.  Ties go as in ``_lowest``,
    within each chunk and then across the chunk winners: the order is total
    (feasible first, then score, then x, then row), so that is the row one
    ranking of all rows picks.

    Each chunk's constraints are evaluated once (values only) and kept; the
    objective only at its feasible rows, and at every row only when no chunk
    holds a feasible row.  The evaluators are row-independent, so the
    winner's values are those of a lone evaluation.  The caller silences
    numpy's floating-point warnings.
    """
    P = np.broadcast_to(p, (max(X.shape[0] for X in chunks), p.size))
    blocks = [spec.constraint_eval(X, P[:X.shape[0]], grad=False) for X in chunks]
    winners = []  # (chunk, row, objective, score) of each chunk's best row
    for c, (X, ce) in enumerate(zip(chunks, blocks)):
        # worst violation <= tol as one row max per column kind: with tol >= 0 these
        # are the rows whose violations() maximum is <= tol, and NaN fails both
        ineq, eq = ce._split(ce.values)
        within = np.ones(X.shape[0], dtype=bool) if ineq is None else _row_max(ineq) <= tol
        if eq is not None:
            within &= _row_max(np.abs(eq)) <= tol
        # most chunks of a small feasible set hold no feasible row: a count
        # finds that at a fraction of the cost of listing the rows
        if not np.count_nonzero(within):
            continue
        rows = within.nonzero()[0]
        X = X.take(rows, 0)  # X[rows], without fancy indexing's fixed cost
        f0, _ = spec.objective(X, P[:rows.size], grad=False)
        f0 = np.where(np.isfinite(f0), f0, np.inf)
        i = _lowest(X, f0)
        if f0[i] < np.inf:
            winners.append((c, rows[i], f0[i], f0[i]))
    if not winners:  # each chunk's row of least objective + penalty
        for c, (X, ce) in enumerate(zip(chunks, blocks)):
            f0, _ = spec.objective(X, P[:X.shape[0]], grad=False)
            score = f0 + ce.penalty(_RANK_PENALTY)[0]
            score = np.where(np.isfinite(score), score, np.inf)
            i = _lowest(X, score)
            winners.append((c, i, f0[i] if np.isfinite(f0[i]) else np.inf, score[i]))
    if len(winners) > 1:
        winners = [winners[_lowest(np.array([chunks[c][i] for c, i, _, _ in winners]),
                                   np.array([score for _, _, _, score in winners]))]]
    c, i, f0, _ = winners[0]
    max_ineq, max_eq, _ = ConstraintEval(blocks[c].values[i:i + 1], None,
                                         blocks[c].n_ineq).violations()
    return c, int(i), float(f0), float(np.maximum(max_ineq, max_eq)[0])


@functools.lru_cache(maxsize=4)
def _mesh(dim: int, points_per_dim: int) -> np.ndarray:
    """The scan's grid points, one per row; built once per (dimension, resolution)."""
    axis = np.linspace(*_BOX, points_per_dim)
    mesh = np.meshgrid(*[axis] * dim, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    points.flags.writeable = False
    return points


@np.errstate(all="ignore")
def grid_scan(spec: ProblemSpec, p, cfg: OracleConfig = OracleConfig()) -> OracleSolution:
    """Exhaustive scan of a regular grid over the box [-6, 6]^k.

    Returns the feasible grid point with the lowest objective, or, when no
    grid point is feasible, the point minimizing objective + penalty at the
    default ``PenaltyConfig`` weight: ``_best`` ranks the 4,096-point chunks
    of the grid as it ranks ``solve``'s candidates.  The answer's objective
    and worst violation are the ones the scan computed; the winner is not
    evaluated again.  ``p`` is checked by ``_params``, and ``cfg`` must be an
    ``OracleConfig`` (``ConfigError`` naming ``cfg``).
    """
    require(isinstance(cfg, OracleConfig), "cfg", cfg, "an OracleConfig")
    p = _params(spec, p)
    k = spec.decision_dim
    if k > 3:
        raise UnsupportedError(f"grid scan supports decision dim <= 3, got {k}")
    t0 = time.perf_counter()

    points = _mesh(k, cfg.grid_points_per_dim)
    chunks = [points[lo:lo + GRID_CHUNK] for lo in range(0, points.shape[0], GRID_CHUNK)]
    c, i, objective, max_violation = _best(spec, p, chunks, cfg.feasible_tol)
    return OracleSolution(x=chunks[c][i].copy(), objective=objective,
                          max_violation=max_violation, solve_time_s=time.perf_counter() - t0,
                          method="grid")


def _accepts(Ft, Gt, ref, t, gnorm2):
    """Which trials are finite and pass the nonmonotone Armijo test; ``Gt`` has
    one more axis than ``Ft``, the last, and ``ref`` and ``gnorm2`` broadcast."""
    return (np.isfinite(Ft) & np.logical_and.reduce(np.isfinite(Gt), -1)
            & (Ft <= ref - 1e-4 * t * gnorm2))


def _halve(fg, X, G, shift, ref, gnorm2, trial, idx):
    """Write into the first trial ``(Xt, Ft, Gt, Rt, t)`` of each failed row ``idx``
    the first of t * 2^-j, j = 1 ... ``_MAX_HALVINGS`` - 1, that passes, trying up
    to ``_HALVINGS_PER_EVAL`` per evaluation; returns the trial and the rows where
    none passed."""
    Xt, Ft, Gt, Rt, t = trial
    # with no constraint Gt is the objective's own array, not a fresh one
    if not Rt.shape[1]:
        Gt = Gt.copy()
    # column j is t halved j times in turn, the steps one halving per
    # evaluation would try, subnormal rounding included
    halves = np.full((idx.size, _MAX_HALVINGS), 0.5)
    halves[:, 0] = t[idx]
    halves = np.multiply.accumulate(halves, 1)
    for j in range(1, _MAX_HALVINGS, _HALVINGS_PER_EVAL):
        if not idx.size:
            break
        ts = halves[:, j:j + _HALVINGS_PER_EVAL]
        n = ts.shape[1]
        # row i's trials are rows i * n ... i * n + n - 1, in halving order
        Xb = (X[idx, None] - ts[:, :, None] * G[idx, None]).reshape(-1, X.shape[1])
        Fb, Gb, Rb = fg(Xb, np.repeat(shift[idx], n, 0))
        passed = _accepts(Fb.reshape(-1, n), Gb.reshape(-1, n, X.shape[1]), ref[idx, None],
                          ts, gnorm2[idx, None])
        any_passed = np.logical_or.reduce(passed, 1)
        hit = any_passed.nonzero()[0]
        first = passed[hit].argmax(1)
        gi, pick = idx[hit], hit * n + first
        Xt[gi], Ft[gi], Gt[gi], Rt[gi] = Xb[pick], Fb[pick], Gb[pick], Rb[pick]
        t[gi] = ts[hit, first]
        idx, halves = idx[~any_passed], halves[~any_passed]
    return (Xt, Ft, Gt, Rt, t), idx


def _dot(a, b):
    """a.b of two lists, added left to right, as numpy sums fewer than 8 columns."""
    s = 0.0
    for u, v in zip(a, b):
        s += u * v
    return s


def _descend_row(fg, X0, shift, cfg: OracleConfig):
    """``_descend_batch`` on one row of fewer than 8 columns, on Python floats.

    CPython's float + - * / and ``math.sqrt`` are numpy's IEEE-754 operations;
    each expression keeps the batch path's order and row sums go left to right,
    so the bits are the batch path's.  A window maximum may differ from numpy's
    only in a zero's sign, which the ``<=`` test cannot see.  Evaluations are
    still (1, k) ``fg`` calls, and a failed first trial goes to ``_halve``.
    """
    F, G, R = fg(X0, shift)
    F, G = F.item(), G[0].tolist()
    ok = math.isfinite(F) and all(map(math.isfinite, G))
    gnorm2 = _dot(G, G)
    if not (ok and gnorm2 > 0.0):
        return X0.copy(), np.array([ok]), R
    X = X0[0].tolist()
    step = cfg.descent_lr / (1.0 + math.sqrt(gnorm2))
    history = [F] * _NONMONOTONE_WINDOW
    for k in range(cfg.descent_steps):
        ref, t = max(history), step
        xt = [x - t * g for x, g in zip(X, G)]
        Xt = np.array([xt])
        Ft, Gt, Rt = fg(Xt, shift)
        ft, gt = Ft.item(), Gt[0].tolist()
        if not (math.isfinite(ft) and all(map(math.isfinite, gt))
                and ft <= ref - 1e-4 * t * gnorm2):
            trial, idx = _halve(fg, np.array([X]), np.array([G]), shift, np.array([ref]),
                                np.array([gnorm2]), (Xt, Ft, Gt, Rt, np.array([t])),
                                np.zeros(1, dtype=np.intp))
            if idx.size:  # no trial passed: the row stays where it is and ends
                break
            Xt, Ft, Gt, Rt, t = trial
            xt, ft, gt, t = Xt[0].tolist(), Ft.item(), Gt[0].tolist(), t.item()
        # S.Y, Y.Y and S.S, and the new point's G.G and X.X, each summed left to right
        sy = yy = ss = gnorm2 = xx = 0.0
        for a, b, c, d in zip(xt, X, gt, G):
            s, y = a - b, c - d
            sy += s * y
            yy += y * y
            ss += s * s
            gnorm2 += c * c
            xx += a * a
        # min(max(...)) in this order keeps a NaN step NaN, as np.minimum and np.maximum do
        step = min(max(sy / yy if sy > 0.0 and yy > 0.0 else t * 2.0, 1e-14), 1e3)
        X, G, R = xt, gt, Rt
        history[k % _NONMONOTONE_WINDOW] = ft
        if not (gnorm2 > 0.0 and math.sqrt(ss) > _MOVE_TOL * (1.0 + math.sqrt(xx))):
            break
    return np.array([X]), np.array([True]), R


def _descend_batch(spec, p, X0, shift, cfg: OracleConfig):
    """Run every start through nonmonotone BB descent on one stage's loss.

    The loss is the stage penalty with each row's residual ``shift``.  At
    step k (from 0) a trial passes the Armijo test against the largest of
    the row's last min(k + 1, ``_NONMONOTONE_WINDOW``) losses, its start
    loss included (Grippo, Lampariello & Lucidi 1986).  Rows finish
    (line-search failure, zero gradient, or sub-tolerance move)
    independently; a finished row's point and residuals are written out and
    it leaves the working arrays.  A row whose first line-search trial fails
    tries its next halvings, up to ``_HALVINGS_PER_EVAL`` of them as extra
    rows of one evaluation, and takes the first that passes.  No row's
    arithmetic depends on another's, so its bits do not depend on which rows
    descend beside it, nor on how many halvings one evaluation tries.  A
    batch of one row of fewer than 8 columns goes to ``_descend_row``, which
    holds its scalars as Python floats and gives it the same bits.
    Returns the final points (a new array: ``X0`` is only read), a per-row
    finite flag, and the unshifted residual block at the final points
    (``ConstraintEval.values``, laid out as ``shift``).  The caller silences
    numpy's floating-point warnings, as ``solve`` does.
    """
    P = np.broadcast_to(p, (X0.shape[0] * _HALVINGS_PER_EVAL, p.size))

    def fg(X, S):
        terms = loss_terms_batch(X, P[:X.shape[0]], spec, _STAGE_PENALTY, strict=False,
                                 shift=S)
        # with no constraint the gradient is the objective's own, of any float type;
        # widened, it gets the double arithmetic that the row path's floats get
        return terms.loss, np.asarray(terms.grad, dtype=float), terms.constraints.values

    if X0.shape[0] == 1 and X0.shape[1] < 8:
        return _descend_row(fg, X0, shift, cfg)
    # row sums are np.add.reduce(A * B, 1), as np.linalg.norm(A, axis=1) sums on real
    # input; einsum("ij,ij->i", A, B) gives the same bits only up to k = 2 columns
    F, G, R = fg(X0, shift)
    ok = np.isfinite(F) & np.logical_and.reduce(np.isfinite(G), 1)
    gnorm2 = np.add.reduce(G * G, 1)
    step = cfg.descent_lr / (1.0 + np.sqrt(np.where(ok, gnorm2, 0.0)))
    X, X_out, R_out = X0, X0.copy(), R.copy()  # X_out, R_out: each row's final values
    rows = np.arange(X.shape[0])  # the working rows' places in X_out
    live = ok & (gnorm2 > 0.0)
    # every slot starts at the start's loss, so the reference is the largest of the
    # last min(k + 1, _NONMONOTONE_WINDOW) losses
    history = np.tile(F, (_NONMONOTONE_WINDOW, 1))
    hist_pos = 0

    for _ in range(cfg.descent_steps):
        # count_nonzero is the cheapest all-test on a short mask
        if np.count_nonzero(live) != live.size:
            X_out[rows[~live]], R_out[rows[~live]] = X[~live], R[~live]
            rows, X, F, G, R, shift, step, gnorm2 = (
                a[live] for a in (rows, X, F, G, R, shift, step, gnorm2))
            history = history[:, live]
        if not rows.size:
            break
        ref = np.maximum.reduce(history, 0)
        t = step  # becomes each row's accepted trial step; step is rebuilt below
        # the first trial covers every working row, without indexing
        Xt = X - t[:, None] * G
        Ft, Gt, Rt = fg(Xt, shift)
        good = _accepts(Ft, Gt, ref, t, gnorm2)
        if np.count_nonzero(good) != good.size:
            (Xt, Ft, Gt, Rt, t), idx = _halve(fg, X, G, shift, ref, gnorm2,
                                              (Xt, Ft, Gt, Rt, t), (~good).nonzero()[0])
            # no trial passed: the row keeps its state, so it does not move and
            # ends, and its step is never read
            Xt[idx], Ft[idx], Gt[idx], Rt[idx] = X[idx], F[idx], G[idx], R[idx]
        S = Xt - X
        Y = Gt - G
        sy = np.add.reduce(S * Y, 1)
        yy = np.add.reduce(Y * Y, 1)
        # where yy is 0, sy / yy is masked (and its warning silenced by the caller)
        bb = np.where((sy > 0.0) & (yy > 0.0), sy / yy, t * 2.0)
        step = np.minimum(np.maximum(bb, 1e-14), 1e3)  # np.clip, at less fixed cost

        moved = np.sqrt(np.add.reduce(S * S, 1))
        X, F, G, R = Xt, Ft, Gt, Rt
        history[hist_pos] = F
        hist_pos = (hist_pos + 1) % _NONMONOTONE_WINDOW
        gnorm2 = np.add.reduce(G * G, 1)
        # a row whose line search failed (converged or stuck) kept its point, so its
        # move is 0 and it ends, as does one that moved too little
        live = (gnorm2 > 0.0) & (moved > _MOVE_TOL * (1.0 + np.sqrt(np.add.reduce(X * X, 1))))

    X_out[rows], R_out[rows] = X, R
    return X_out, ok, R_out


def _stages(spec, p, X, cfg: OracleConfig):
    """Up to 12 multiplier stages from the starts ``X``, whose rows it overwrites;
    returns ``(X, ok)``, ``ok`` a per-row finite flag."""
    n_ineq = len(spec.inequalities)
    ok = np.ones(X.shape[0], dtype=bool)
    rows = np.arange(X.shape[0])  # the starts still running
    shift = np.zeros((X.shape[0], n_ineq + len(spec.equalities)))  # theirs, row for row
    for _ in range(_AL_MAX_STAGES):
        if not rows.size:  # every start stopped, or there was none: nothing to evaluate
            break
        X[rows], ok[rows], R = _descend_batch(spec, p, X[rows], shift, cfg)
        after = shift + R
        after[:, :n_ineq] = np.maximum(0.0, after[:, :n_ineq])
        # a shift moves by its constraint's violation, or by how far an
        # inequality with a positive multiplier sits inside its boundary
        keep = ok[rows] & ~np.logical_and.reduce(np.abs(after - shift) <= cfg.feasible_tol / 10,
                                                 1)
        rows, shift = rows[keep], after[keep]
    return X, ok


def kkt_residual(spec: ProblemSpec, p, x, tol: float) -> float:
    """The first-order (KKT) residual at ``x``: |g + A lam| / (1 + |g|), with g
    the objective's gradient, A's columns the active constraints' gradients
    (every equality, and each inequality with residual >= -``tol``) and lam
    their least-squares multipliers, the inequalities' clamped at 0 (Nocedal &
    Wright, ch. 12).  0 at a stationary point, inf where a gradient is not
    finite; feasibility is the caller's check.  ``p`` is checked by ``_params``,
    and before anything is evaluated ``x`` must hold ``decision_dim`` values
    (``DimensionError``) and ``tol`` be a finite real >= 0 (``ConfigError``
    naming ``tol``).
    """
    P = _params(spec, p)[None]
    X = np.asarray(x, dtype=float).reshape(1, -1)
    if X.size != spec.decision_dim:
        raise DimensionError(f"x has {X.size} values, {spec.name} takes {spec.decision_dim}")
    return _kkt(spec, P, X, real_value("tol", tol, at_least=0))


def _kkt(spec, P, X, tol) -> float:
    """``kkt_residual`` at the one row of ``X``, with ``P`` its (1, d) parameters
    and no input checks."""
    g = spec.objective(X, P)[1][0]
    ce = spec.constraint_eval(X, P)
    ineq = np.arange(ce.values.shape[1]) < ce.n_ineq
    active = ~ineq | (ce.values[0] >= -tol)
    A = ce.grads[0, active].T
    if not (all_finite(g) and all_finite(A)):
        return float("inf")
    r = g  # with no active constraint, |g| / (1 + |g|): g + A @ lam would be g + 0
    if A.shape[1]:
        lam = np.linalg.lstsq(A, -g)[0]
        r = g + A @ np.where(ineq[active], np.maximum(lam, 0.0), lam)
    return float(np.linalg.norm(r) / (1.0 + np.linalg.norm(g)))


@np.errstate(all="ignore")
def solve(spec: ProblemSpec, p, cfg: OracleConfig = OracleConfig()) -> OracleSolution:
    """Augmented-Lagrangian descent from the grid start, and from random starts
    when its answer is not certified.

    Each start runs up to 12 multiplier stages (``_stages``).  A feasible grid
    point (k <= 3) descends alone first; if the better of the two by ``_best``
    is feasible with a ``kkt_residual`` of at most 1e-6, it is the answer
    (``certified``).  Else, and when no grid point is feasible or k > 3,
    ``starts`` seeded uniform draws in the box [-6, 6]^k descend too, beside
    the grid start if it has not descended yet (rows are independent, so the
    bits are one batch's).  ``_best`` then ranks every final iterate and the
    undescended grid point, as ``grid_scan`` ranks its points, so the result
    is never worse than ``grid_scan``; with no feasible candidate it is the
    least objective + penalty at the default ``PenaltyConfig``.  A
    certificate is local, not global: a deeper basin narrower than a grid
    cell (0.06 by default) could hide beside the grid winner.

    ``method`` says whether the grid point or a descent won; when every start
    diverges, the grid point is the answer, and with no grid point (k > 3)
    ``OracleError`` is raised.  ``solve_time_s`` is the whole call's clock,
    grid scan included, and the bench's ``t_oracle_ns``.  ``p`` is checked by
    ``_params``, and ``cfg`` must be an ``OracleConfig`` (``ConfigError`` naming
    ``cfg``).
    """
    require(isinstance(cfg, OracleConfig), "cfg", cfg, "an OracleConfig")
    p = _params(spec, p)
    k, tol = spec.decision_dim, cfg.feasible_tol
    t0 = time.perf_counter()
    if k > 3 and not cfg.starts:
        raise OracleError(f"no starting points configured for {spec.name}")

    scan = [grid_scan(spec, p, cfg)] if k <= 3 else []
    grid = [s.x for s in scan]  # the grid point, if any

    def ranked(X, ok):
        # the grid point goes first: it wins ties, so method == "grid" iff x is it
        C = np.vstack([*grid, X[ok]])
        _, i, objective, max_violation = _best(spec, p, [C], tol)
        return C[i], i, objective, max_violation

    pending, certified = grid, False  # the grid point descends with the random starts
    X, ok = np.empty((0, k)), np.empty(0, dtype=bool)  # unless it descends alone first
    if scan and scan[0].max_violation <= tol and scan[0].objective < np.inf:
        pending, (X, ok) = [], _stages(spec, p, grid[0][None].copy(), cfg)
        # the grid point is feasible, so the winner is
        x, i, objective, max_violation = ranked(X, ok)
        certified = _kkt(spec, p[None], x[None], tol) <= _KKT_BOUND
    if not certified:
        rng = np.random.default_rng(cfg.seed)
        lo, hi = _BOX
        S, S_ok = _stages(spec, p, np.vstack([lo + (hi - lo) * rng.random((cfg.starts, k)),
                                              *pending]), cfg)
        X, ok = np.vstack([S, X]), np.concatenate([S_ok, ok])
        if not ok.any() and not grid:
            raise OracleError(f"all {X.shape[0]} starts diverged on {spec.name} at params "
                              f"{p.tolist()}: no start had a finite loss and gradient")
        x, i, objective, max_violation = ranked(X, ok)
    return OracleSolution(x=x.copy(), objective=objective, max_violation=max_violation,
                          solve_time_s=time.perf_counter() - t0,
                          method="grid" if i < len(grid) else "descent", certified=certified)
