"""Per-instance numerical solver used to score network outputs.

Two routes: an exhaustive grid scan (the independent brute-force check, viable
for decision dimension <= 3) and multi-start penalized gradient descent with an
increasing penalty-weight schedule.  Descent runs all starts as one batch and
uses Barzilai-Borwein step lengths under a nonmonotone backtracking safeguard;
``descent_lr`` is the initial and fallback step size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import OracleError, UnsupportedError, require
from .penalty import PenaltyConfig, loss_terms_batch
from .penalty import violation_report_batch  # noqa: F401 -- wrapped by perfbench/layers.py:targets()
from .problems import ProblemSpec

GRID_CHUNK = 200_000
_MAX_HALVINGS = 45
_NONMONOTONE_WINDOW = 10


@dataclass(frozen=True)
class OracleConfig:
    grid_points_per_dim: int = 201
    grid_bounds: Optional[tuple[tuple[float, float], ...]] = None  # default (-6, 6) per dim
    starts: int = 16
    descent_steps: int = 400
    descent_lr: float = 1e-2
    eta_schedule: tuple[float, ...] = (1e2, 1e4, 1e6, 1e8)
    tolerance: float = 1e-10
    gamma: float = 2.0
    feasible_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        require(self.grid_points_per_dim >= 2, "grid_points_per_dim",
                self.grid_points_per_dim, ">= 2")
        sched = tuple(float(e) for e in self.eta_schedule)
        require(sched and all(b > a for a, b in zip(sched, sched[1:])) and sched[-1] >= 1e8,
                "eta_schedule", sched, "strictly increasing, ending at >= 1e8")
        object.__setattr__(self, "eta_schedule", sched)
        require(self.starts >= 0, "starts", self.starts, ">= 0")
        require(self.descent_steps >= 1, "descent_steps", self.descent_steps, ">= 1")
        require(self.gamma >= 1.0, "gamma", self.gamma, ">= 1")
        require(self.descent_lr > 0, "descent_lr", self.descent_lr, "> 0")
        require(self.grid_bounds is None or all(lo <= hi for lo, hi in self.grid_bounds),
                "grid_bounds", self.grid_bounds, "lo <= hi in every dimension")
        require(self.seed >= 0, "seed", self.seed, ">= 0")

    def bounds_for(self, dim: int) -> tuple[tuple[float, float], ...]:
        if self.grid_bounds is not None:
            if len(self.grid_bounds) != dim:
                raise UnsupportedError(
                    f"grid_bounds has {len(self.grid_bounds)} entries for dim {dim}"
                )
            return tuple((float(a), float(b)) for a, b in self.grid_bounds)
        return tuple(((-6.0, 6.0),) * dim)


@dataclass(frozen=True)
class OracleSolution:
    x: np.ndarray
    objective: float
    max_violation: float
    solve_time_s: float
    method: str  # "grid" or "descent"


def _stage_penalty(cfg: OracleConfig, eta: float) -> PenaltyConfig:
    return PenaltyConfig(eta_ineq=eta, eta_eq=eta, gamma=cfg.gamma)


def _evaluate(spec: ProblemSpec, p: np.ndarray, X: np.ndarray, pcfg: PenaltyConfig):
    """Penalized terms for many x at one parameter vector.

    Never raises on non-finite trial points; such rows simply carry inf/nan
    and lose the line search.
    """
    P = np.broadcast_to(p, (X.shape[0], p.size))
    return loss_terms_batch(X, P, spec, pcfg, strict=False)


def grid_scan(spec: ProblemSpec, p, cfg: OracleConfig = OracleConfig()) -> OracleSolution:
    """Exhaustive scan of a regular grid over the configured bounds.

    Returns the feasible grid point with the lowest objective, or, when no
    grid point is feasible, the point minimizing objective + penalty at the
    final schedule weight.
    """
    p = np.asarray(p, dtype=float).ravel()
    k = spec.decision_dim
    if k > 3:
        raise UnsupportedError(f"grid scan supports decision dim <= 3, got {k}")
    t0 = time.perf_counter()

    bounds = cfg.bounds_for(k)
    axes = [np.linspace(lo, hi, cfg.grid_points_per_dim) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)

    best_feas = None  # (f0, x)
    best_any = None   # (penalized, x)
    pcfg = _stage_penalty(cfg, cfg.eta_schedule[-1])
    for lo_idx in range(0, points.shape[0], GRID_CHUNK):
        X = points[lo_idx:lo_idx + GRID_CHUNK]
        terms = _evaluate(spec, p, X, pcfg)
        f0 = terms.objective
        max_ineq, max_eq, _ = terms.constraints.violations()
        viol = np.maximum(max_ineq, max_eq)

        pen = np.where(np.isfinite(terms.loss), terms.loss, np.inf)
        i = int(np.argmin(pen))
        if best_any is None or pen[i] < best_any[0]:
            best_any = (float(pen[i]), X[i].copy())
        feas = (viol <= cfg.feasible_tol) & np.isfinite(f0)
        if feas.any():
            f_masked = np.where(feas, f0, np.inf)
            i = int(np.argmin(f_masked))
            if best_feas is None or f_masked[i] < best_feas[0]:
                best_feas = (float(f_masked[i]), X[i].copy())

    x_best = best_feas[1] if best_feas is not None else best_any[1]
    # re-evaluated alone: a 1-row call need not match its row in the chunk bit for bit
    terms = _evaluate(spec, p, x_best[None, :], pcfg)
    max_ineq, max_eq, _ = terms.constraints.violations()
    return OracleSolution(
        x=x_best,
        objective=float(terms.objective[0]),
        max_violation=float(np.maximum(max_ineq, max_eq)[0]),
        solve_time_s=time.perf_counter() - t0,
        method="grid",
    )


def _descend_batch(spec, p, X0, eta, cfg: OracleConfig):
    """Run every start through nonmonotone BB descent at one penalty weight.

    Rows converge (line-search failure, zero gradient, or sub-tolerance move)
    independently; finished rows are frozen while the rest keep iterating.
    Returns the final points and a per-row finite flag.
    """

    pcfg = _stage_penalty(cfg, eta)

    def fg(X):
        terms = _evaluate(spec, p, X, pcfg)
        return terms.loss, terms.grad

    X = X0.copy()
    F, G = fg(X)
    ok = np.isfinite(F) & np.isfinite(G).all(axis=1)
    active = ok.copy()
    step = cfg.descent_lr / (1.0 + np.linalg.norm(np.where(ok[:, None], G, 0.0), axis=1))
    history = np.full((X.shape[0], _NONMONOTONE_WINDOW), np.inf)
    history[:, 0] = np.where(ok, F, np.inf)
    hist_pos = 1

    for _ in range(cfg.descent_steps):
        gnorm2 = np.einsum("ij,ij->i", G, G)
        active &= gnorm2 > 0.0
        if not active.any():
            break
        ref = history.max(axis=1)
        t = step.copy()
        accepted = np.zeros(X.shape[0], dtype=bool)
        X_new, F_new, G_new = X.copy(), F.copy(), G.copy()
        for _ in range(_MAX_HALVINGS):
            trial = active & ~accepted
            if not trial.any():
                break
            idx = np.flatnonzero(trial)
            Xt = X[idx] - t[idx, None] * G[idx]
            Ft, Gt = fg(Xt)
            good = (
                np.isfinite(Ft)
                & np.isfinite(Gt).all(axis=1)
                & (Ft <= ref[idx] - 1e-4 * t[idx] * gnorm2[idx])
            )
            gi = idx[good]
            X_new[gi], F_new[gi], G_new[gi] = Xt[good], Ft[good], Gt[good]
            accepted[gi] = True
            bad = idx[~good]
            t[bad] *= 0.5
        # rows whose line search failed are converged (or stuck); freeze them
        active &= accepted

        S = X_new - X
        Y = G_new - G
        sy = np.einsum("ij,ij->i", S, Y)
        yy = np.einsum("ij,ij->i", Y, Y)
        bb_ok = active & (sy > 0.0) & (yy > 0.0)
        with np.errstate(all="ignore"):
            bb = np.where(bb_ok, sy / np.where(yy > 0.0, yy, 1.0), t * 2.0)
        step = np.where(active, np.clip(bb, 1e-14, 1e3), step)

        moved = np.linalg.norm(S, axis=1)
        upd = active[:, None]
        X = np.where(upd, X_new, X)
        F = np.where(active, F_new, F)
        G = np.where(upd, G_new, G)
        history[active, hist_pos] = F[active]
        hist_pos = (hist_pos + 1) % _NONMONOTONE_WINDOW
        active &= moved > cfg.tolerance * (1.0 + np.linalg.norm(X, axis=1))

    return X, ok


def solve(spec: ProblemSpec, p, cfg: OracleConfig = OracleConfig()) -> OracleSolution:
    """Multi-start penalized descent over the eta schedule.

    Starts are sampled uniformly in the grid bounds (seeded), plus one start
    from the grid scan when the dimension permits.  The best final iterate is
    chosen feasible-first, then by objective; with no feasible finisher the
    ranking falls back to objective + final-eta penalty.
    """
    p = np.asarray(p, dtype=float).ravel()
    k = spec.decision_dim
    t0 = time.perf_counter()

    bounds = cfg.bounds_for(k)
    rng = np.random.default_rng(cfg.seed)
    lows = np.array([b[0] for b in bounds])
    highs = np.array([b[1] for b in bounds])
    starts = [lows + (highs - lows) * rng.random(k) for _ in range(cfg.starts)]
    if k <= 3:
        starts.append(grid_scan(spec, p, cfg).x)
    if not starts:
        raise OracleError(f"no starting points configured for {spec.name}")

    X = np.stack(starts)
    ok = np.ones(X.shape[0], dtype=bool)
    for eta in cfg.eta_schedule:
        X, stage_ok = _descend_batch(spec, p, X, eta, cfg)
        ok &= stage_ok
    if not ok.any():
        raise OracleError(f"all {X.shape[0]} starts diverged on {spec.name}")

    X = X[ok]
    terms = _evaluate(spec, p, X, _stage_penalty(cfg, cfg.eta_schedule[-1]))
    max_ineq, max_eq, _ = terms.constraints.violations()
    viol = np.maximum(max_ineq, max_eq)
    f0 = np.where(np.isfinite(terms.objective), terms.objective, np.inf)
    pen = np.where(np.isfinite(terms.loss), terms.loss, np.inf)

    # value-based key so the winner is independent of evaluation order
    def key(i):
        feas = viol[i] <= cfg.feasible_tol
        primary = f0[i] if feas else pen[i]
        return (0 if feas else 1, float(primary), tuple(X[i]))

    best = min(range(X.shape[0]), key=key)
    return OracleSolution(
        x=X[best].copy(),
        objective=float(f0[best]),
        max_violation=float(viol[best]),
        solve_time_s=time.perf_counter() - t0,
        method="descent",
    )
