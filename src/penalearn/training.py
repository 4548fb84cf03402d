"""Unsupervised training loop: sample parameters, push them through the net,
penalize the outputs, and descend the mean penalized loss with ADAM.

No labels anywhere: the loss of a batch is the mean of objective + penalty at
the network outputs, so gradients flow from the optimization landscape itself
back into the weights.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (DimensionError, TrainingDivergedError, is_int, require, require_int,
                     require_real)
from .nn import AdamState, Mlp, adam_step, init_mlp, mlp_backward, mlp_forward
from .penalty import PenaltyConfig, loss_terms_batch
from .penalty import violation_report, violation_report_batch  # noqa: F401 -- wrapped by perfbench/layers.py:targets()
from .problems import ProblemSpec, sample_params

__all__ = [
    "TrainConfig",
    "TrainLogEntry",
    "TrainLog",
    "EvalReport",
    "train",
    "evaluate",
    "resolve_net_shape",
]

TRAIN_LOG_COLUMNS = ("epoch", "mean_loss", "mean_objective", "mean_penalty",
                     "feasible_frac", "elapsed_s")
# a batch mean loss above this stops training with TrainingDivergedError
DIVERGENCE_LIMIT = 1e15
# the one template every report CSV cell is written with
_CELL = "%.17g"


@dataclass(frozen=True)
class TrainConfig:
    """Training-run settings; defaults follow the benchmark reproductions."""

    sample_count: int = 1000
    epochs: int = 5000
    batch_size: int = 100
    seed: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    log_every: int = 100
    net_shape: Optional[tuple[int, ...]] = None
    feas_tolerance: float = 0.1
    normalize_inputs: bool = True

    def __post_init__(self):
        require_int(self, "epochs", 1)
        require_int(self, "sample_count", 1)
        batch = self.batch_size
        require(is_int(batch) and 1 <= batch <= self.sample_count, "batch_size", batch,
                f"an integer in [1, sample_count = {self.sample_count}]")
        require_int(self, "seed", 0)
        require_int(self, "log_every", 1)
        require_real(self, "learning_rate", above=0)
        require_real(self, "beta1", above=0, below=1)
        require_real(self, "beta2", above=0, below=1)
        require_real(self, "adam_epsilon", above=0)
        require(isinstance(self.penalty, PenaltyConfig), "penalty", self.penalty,
                "a PenaltyConfig")
        shape = self.net_shape
        require(shape is None or (len(shape) >= 3 and all(is_int(s) and s >= 1 for s in shape)),
                "net_shape", shape, "3 or more layer sizes, each an integer >= 1")
        require_real(self, "feas_tolerance", at_least=0)
        require(isinstance(self.normalize_inputs, bool), "normalize_inputs",
                self.normalize_inputs, "True or False")


@dataclass(frozen=True)
class TrainLogEntry:
    epoch: int
    mean_loss: float
    mean_objective: float
    mean_penalty: float
    feasible_frac: float
    elapsed_s: float


@dataclass(frozen=True)
class TrainLog:
    """Full-sample-set metrics at epoch 0, every log point, and the final epoch."""

    entries: tuple[TrainLogEntry, ...]

    def final(self) -> TrainLogEntry:
        return self.entries[-1]

    def to_csv(self) -> str:
        return csv_text(TRAIN_LOG_COLUMNS, (
            (e.epoch, e.mean_loss, e.mean_objective, e.mean_penalty, e.feasible_frac,
             e.elapsed_s) for e in self.entries))


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Forward-pass scorecards, one row per parameter vector: ``params`` (n, d),
    ``x`` (n, k), and ``objective``, ``max_ineq_violation``,
    ``max_eq_violation``, ``feasible`` and ``forward_time_s``, each (n,).

    ``eq=False``: a generated ``__eq__`` would compare arrays and raise."""

    params: np.ndarray
    x: np.ndarray
    objective: np.ndarray
    max_ineq_violation: np.ndarray
    max_eq_violation: np.ndarray
    feasible: np.ndarray
    forward_time_s: np.ndarray


def _input_transform(spec: ProblemSpec, enabled: bool):
    """Affine map p -> (p - mid) / half mapping the sample ranges onto [-1, 1]."""
    lo = np.array([r[0] for r in spec.param_ranges])
    hi = np.array([r[1] for r in spec.param_ranges])
    if not enabled:
        return np.zeros_like(lo), np.ones_like(hi)
    mid = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    half = np.where(half > 0.0, half, 1.0)  # degenerate [a, a] range
    return mid, half


def _fold_input_transform(net: Mlp, mid: np.ndarray, half: np.ndarray) -> Mlp:
    """Rewrite layer 0 so the returned net takes raw parameters.

    tanh(W u + b) with u = (p - mid)/half equals tanh(W' p + b') for
    W' = W/half (columnwise) and b' = b - W (mid/half); the fold is exact up
    to one float rounding per entry.
    """
    folded = Mlp(net.layer_sizes, net.params.copy())
    folded.weights[0][...] = net.weights[0] / half[None, :]
    folded.biases[0][...] = net.biases[0] - net.weights[0] @ (mid / half)
    return folded


def resolve_net_shape(spec: ProblemSpec, cfg: TrainConfig) -> tuple[int, ...]:
    """The configured layer sizes, or the problem's published shape when unset.

    ``ConfigError`` (field ``net_shape``) unless the shape maps the problem's
    parameter dimension to its decision dimension.
    """
    shape = tuple(cfg.net_shape) if cfg.net_shape else tuple(spec.default_net_shape)
    require(bool(shape) and shape[0] == spec.param_dim and shape[-1] == spec.decision_dim,
            "net_shape", shape, f"({spec.param_dim}, ..., {spec.decision_dim}) for {spec.name}")
    return shape


def _log_entry(epoch, net, inputs, raw_params, spec, cfg, t0) -> TrainLogEntry:
    outputs, _ = mlp_forward(net, inputs)
    terms = loss_terms_batch(outputs, raw_params, spec, cfg.penalty, grad=False)
    return TrainLogEntry(
        epoch=int(epoch),
        mean_loss=float(terms.loss.mean()),
        mean_objective=float(terms.objective.mean()),
        mean_penalty=float(terms.penalty.mean()),
        feasible_frac=float((terms.constraints.worst() <= cfg.feas_tolerance).mean()),
        elapsed_s=time.perf_counter() - t0,
    )


def train(spec: ProblemSpec, cfg: TrainConfig) -> tuple[Mlp, TrainLog]:
    """Train a network for ``spec`` and return it with the training log.

    Each epoch visits all samples in shuffled minibatches; the per-batch
    parameter gradient is the gradient of the batch mean of objective +
    penalty.  Every step calls ``mlp_forward``, ``loss_terms_batch``,
    ``mlp_backward`` and ``adam_step`` once each.  Fully deterministic for a
    fixed config.  ``spec`` must be a ``ProblemSpec`` and ``cfg`` a
    ``TrainConfig``, or ``ConfigError`` names the argument.
    """
    require(isinstance(spec, ProblemSpec), "spec", spec, "a ProblemSpec")
    require(isinstance(cfg, TrainConfig), "cfg", cfg, "a TrainConfig")
    shape = resolve_net_shape(spec, cfg)
    raw = sample_params(spec, cfg.sample_count, cfg.seed)
    mid, half = _input_transform(spec, cfg.normalize_inputs)
    inputs = (raw - mid) / half

    net = init_mlp(shape, seed=(cfg.seed, 1))
    state = AdamState.for_net(
        net,
        learning_rate=cfg.learning_rate,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        epsilon=cfg.adam_epsilon,
    )
    shuffle_rng = np.random.default_rng((cfg.seed, 2))
    # every step's gradient lands in this one buffer, and ADAM updates `net`
    # and `state` in place, so no step rebuilds a net's views
    grad_buf = Mlp(net.layer_sizes, np.zeros_like(net.params))

    t0 = time.perf_counter()
    entries = [_log_entry(0, net, inputs, raw, spec, cfg, t0)]
    n = cfg.sample_count
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        # permuted once per epoch, so each batch is a slice, not a copy
        epoch_inputs, epoch_raw = inputs[order], raw[order]
        for lo_idx in range(0, n, cfg.batch_size):
            batch = slice(lo_idx, lo_idx + cfg.batch_size)
            idx = order[batch]
            outputs, trace = mlp_forward(net, epoch_inputs[batch])
            grad_x = _batch_loss_guarded(outputs, epoch_raw[batch], spec, cfg, epoch, idx)
            upstream = grad_x / idx.size  # gradient of the batch mean
            grads = mlp_backward(net, trace, upstream, out=grad_buf)
            adam_step(net, state, grads, out=(net, state))
        if epoch % cfg.log_every == 0 or epoch == cfg.epochs:
            entries.append(_log_entry(epoch, net, inputs, raw, spec, cfg, t0))

    folded = _fold_input_transform(net, mid, half)
    return folded, TrainLog(entries=tuple(entries))


def _batch_loss_guarded(outputs, raw_params, spec, cfg, epoch, idx):
    """The batch loss's gradient in the outputs; ``TrainingDivergedError`` when
    a loss is non-finite or the batch mean passes ``DIVERGENCE_LIMIT``."""
    terms = loss_terms_batch(outputs, raw_params, spec, cfg.penalty)
    loss = terms.loss
    mean = float(loss.sum()) / loss.size  # loss.mean()'s bits, without its wrapper
    # a non-finite loss makes the mean non-finite, so finite batches skip the scan
    if not math.isfinite(mean) and not np.isfinite(loss).all():
        sample = int(idx[int(np.argmax(~np.isfinite(loss)))])
        raise TrainingDivergedError(
            f"non-finite loss at epoch {epoch}, sample {sample}",
            epoch=epoch,
            sample_index=sample,
        )
    if mean > DIVERGENCE_LIMIT:
        sample = int(idx[int(np.argmax(loss))])
        raise TrainingDivergedError(
            f"mean loss {mean:.3g} exceeded divergence limit "
            f"{DIVERGENCE_LIMIT:.3g} at epoch {epoch} (worst sample {sample})",
            epoch=epoch,
            sample_index=sample,
        )
    return terms.grad


def evaluate(
    net: Mlp,
    spec: ProblemSpec,
    P: np.ndarray,
    cfg: Optional[PenaltyConfig] = None,
) -> EvalReport:
    """Score the forward pass on each parameter vector, one per row of ``P``.

    Each row's ``x`` and ``forward_time_s`` come from its own batch-1
    forward: that is the single-instance latency the paper quotes, and a
    batched forward may round differently in the last bit.  Scoring is one
    objective, one constraint and one violations pass over all outputs; the
    problem evaluators are elementwise per row, so each row of the report
    holds the same bits as scoring that row alone.  ``params`` is a copy of
    ``P``; zero rows give an empty report without scoring.
    ``DimensionError`` when the net or ``P``, which must be
    (rows, param_dim), does not fit ``spec``; ``ConfigError`` naming the
    argument unless ``net`` is an ``Mlp``, ``spec`` a ``ProblemSpec`` and
    ``cfg`` ``None`` or a ``PenaltyConfig``.
    """
    cfg = cfg if cfg is not None else PenaltyConfig()
    require(isinstance(net, Mlp), "net", net, "an Mlp")
    require(isinstance(spec, ProblemSpec), "spec", spec, "a ProblemSpec")
    require(isinstance(cfg, PenaltyConfig), "cfg", cfg, "a PenaltyConfig")
    if net.input_dim != spec.param_dim:
        raise DimensionError(
            f"net input dim {net.input_dim} != problem param dim {spec.param_dim}"
        )
    if net.output_dim != spec.decision_dim:
        raise DimensionError(
            f"net output dim {net.output_dim} != problem decision dim {spec.decision_dim}"
        )
    P = np.array(P, dtype=float)
    if P.ndim != 2 or P.shape[1] != spec.param_dim:
        raise DimensionError(f"P has shape {P.shape}, expected "
                             f"(rows, {spec.param_dim}) for {spec.name}")
    n = len(P)
    X, times = np.empty((n, spec.decision_dim)), np.empty(n)
    if n == 0:
        return EvalReport(P, X, times, times, times, np.zeros(0, bool), times)
    for i, row in enumerate(P):
        t0 = time.perf_counter()
        out, _ = mlp_forward(net, row[None, :])
        times[i] = time.perf_counter() - t0
        X[i] = out[0]
    # values only: no penalty and no gradient is read here
    f0, _ = spec.objective(X, P, grad=False)
    ce = spec.constraint_eval(X, P, grad=False)
    max_ineq, max_eq, feasible = ce.violations(cfg.eq_tolerance)
    return EvalReport(P, X, f0, max_ineq, max_eq, feasible, times)


def columns(name: str, n: int) -> list[str]:
    """Header cells ``name1`` to ``name<n>``."""
    return [f"{name}{i + 1}" for i in range(n)]


def csv_text(header, rows, comments=()) -> str:
    """Every report CSV penalearn writes: ``header``, one line per row, then comments.

    Each row is a sequence, written with one ``%.17g`` template, which prints
    a float as text that parses back to the same bits, an int as itself and
    a bool as 0 or 1.  Each comment becomes a ``# `` line: a string as it is,
    a dict as ``key=value`` tokens whose numbers go through the same template.
    """
    template = ",".join([_CELL] * len(header))
    lines = [",".join(header), *(template % tuple(row) for row in rows)]
    for c in comments:
        if not isinstance(c, str):
            c = " ".join(f"{k}={v if isinstance(v, str) else _CELL % v}" for k, v in c.items())
        lines.append("# " + c)
    return "\n".join(lines) + "\n"


def eval_reports_csv(report: EvalReport, spec: ProblemSpec) -> str:
    """CSV over ``spec``'s scorecards, one line per row; no rows: the header alone."""
    header = (columns("c", spec.param_dim) + columns("x", spec.decision_dim)
              + ["f0", "max_ineq_violation", "max_eq_violation", "feasible", "t_fwd_ns"])
    r = report
    # tolist() hands %.17g Python floats: the same text as numpy scalars, sooner
    return csv_text(header, np.column_stack((
        r.params, r.x, r.objective, r.max_ineq_violation, r.max_eq_violation, r.feasible,
        r.forward_time_s * 1e9)).tolist())
