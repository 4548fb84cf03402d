"""Which penalearn names the traced run wraps, and the per-layer metrics.

Each name is wrapped where the calling module looks it up, so a call made
through ``from .nn import mlp_forward`` inside ``training`` is caught by
wrapping ``penalearn.training.mlp_forward``.  Objectives are wrapped at the
registry functions, so every spec made while the tracer is on carries a
traced ``objective`` field; the workloads make their specs inside each pass.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from penalearn import cli, nn, oracle, penalty, problems, training
from penalearn.problems import ProblemSpec

from tracing import Target, children_of, self_times


def _rows(x) -> int:
    return 1 if np.ndim(x) < 2 else len(x)


def _forward_meter(args, kwargs):
    net, batch = args[0], args[1]
    return (_rows(batch), net.layer_sizes)


def _first_arg_rows(args, kwargs):
    return _rows(args[0])


def _method_rows(args, kwargs):
    return _rows(args[1])


def _grid_points(args, kwargs):
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg", oracle.OracleConfig())
    return cfg.grid_points_per_dim ** args[0].decision_dim


def _eval_rows(args, kwargs):
    return len(args[2])


def _cli_command(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


def targets():
    """Every wrapped name: (owner, attribute, span name, meter)."""
    return (
        Target(nn, "mlp_forward", "nn.forward", _forward_meter),
        Target(training, "mlp_forward", "nn.forward", _forward_meter),
        Target(training, "mlp_backward", "nn.backward"),
        Target(training, "adam_step", "nn.adam"),
        Target(nn, "save_model", "nn.save_model"),
        Target(cli, "save_model", "nn.save_model"),
        Target(nn, "load_model", "nn.load_model"),
        Target(cli, "load_model", "nn.load_model"),
        Target(penalty, "loss_terms_batch", "penalty.loss_terms", _first_arg_rows),
        Target(training, "loss_terms_batch", "penalty.loss_terms", _first_arg_rows),
        Target(training, "violation_report", "penalty.violation_report", _first_arg_rows),
        Target(training, "violation_report_batch", "penalty.violation_report", _first_arg_rows),
        Target(oracle, "violation_report_batch", "penalty.violation_report", _first_arg_rows),
        Target(ProblemSpec, "constraint_eval", "problems.constraint_eval", _method_rows),
        Target(problems, "rosenbrock_objective", "problems.objective", _first_arg_rows),
        Target(problems, "ackley_objective", "problems.objective", _first_arg_rows),
        Target(training, "train", "training.train"),
        Target(cli, "train", "training.train"),
        Target(training, "evaluate", "training.evaluate", _eval_rows),
        Target(cli, "evaluate", "training.evaluate", _eval_rows),
        Target(oracle, "solve", "oracle.solve"),
        Target(cli, "solve", "oracle.solve"),
        Target(oracle, "grid_scan", "oracle.grid", _grid_points),
        Target(cli, "main", "cli.main", _cli_command),
        Target(cli, "write_text_atomic", "cli.write"),
    )


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _forward_work(layer_sizes):
    """(MACs per row, parameter count, activations written per row)."""
    sizes = tuple(layer_sizes)
    params = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    return nn.mac_count(sizes), params, 2 * sum(sizes[1:])


def layer_metrics(spans, solve_failed: int) -> dict:
    """Per-layer metrics from a traced pass; times are totals over the pass."""
    kids = children_of(spans)
    selfs = self_times(spans, kids)
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s.name].append(i)

    def dur(i):
        return spans[i].end - spans[i].start

    def total_ms(name):
        return sum(dur(i) for i in by[name]) / 1e6

    def self_ms(name):
        return sum(selfs[i] for i in by[name]) / 1e6

    def rows(name):
        return int(sum(spans[i].meta for i in by[name]))

    m = {}

    fwd = by["nn.forward"]
    macs = fwd_bytes = fwd_ns = fwd_rows = 0
    for i in fwd:
        n, sizes = spans[i].meta
        per_row, params, acts = _forward_work(sizes)
        macs += n * per_row
        # computed, not measured: input read, parameters read, pre- and
        # post-activations written, all float64
        fwd_bytes += 8 * (n * sizes[0] + params + n * acts)
        fwd_ns += dur(i)
        fwd_rows += n
    m["nn.forward.calls"] = len(fwd)
    m["nn.forward.rows"] = fwd_rows
    m["nn.forward.self_ms"] = self_ms("nn.forward")
    m["nn.forward.macs"] = macs
    m["nn.forward.bytes"] = fwd_bytes
    m["nn.forward.gmacs_per_s"] = macs / fwd_ns if fwd_ns else 0.0
    m["nn.backward.calls"] = len(by["nn.backward"])
    m["nn.backward.self_ms"] = self_ms("nn.backward")
    m["nn.adam.calls"] = len(by["nn.adam"])
    m["nn.adam.self_ms"] = self_ms("nn.adam")
    m["nn.load_model.ms"] = total_ms("nn.load_model")
    m["nn.save_model.ms"] = total_ms("nn.save_model")

    for name in ("penalty.loss_terms", "penalty.violation_report",
                 "problems.objective", "problems.constraint_eval"):
        m[f"{name}.calls"] = len(by[name])
        m[f"{name}.rows"] = rows(name)
        m[f"{name}.self_ms"] = self_ms(name)
    n_obj = len(by["problems.objective"])
    m["problems.constraint_evals_per_objective"] = (
        len(by["problems.constraint_eval"]) / n_obj if n_obj else 0.0
    )

    steps_us = []
    for t in by["training.train"]:
        forward_start = None
        for c in kids[t]:
            if spans[c].name == "nn.forward":
                forward_start = spans[c].start
            elif spans[c].name == "nn.adam" and forward_start is not None:
                steps_us.append((spans[c].end - forward_start) / 1e3)
    m["training.steps"] = len(steps_us)
    m["training.step_p50_us"] = _pct(steps_us, 50)
    m["training.step_p90_us"] = _pct(steps_us, 90)
    m["training.self_ms"] = self_ms("training.train")
    m["training.evaluate.ms"] = total_ms("training.evaluate")
    m["training.evaluate.self_ms"] = self_ms("training.evaluate")

    solve_ns = grid_ns = 0
    descent_ms, descent_evals = [], []
    eval_rows = eval_calls = 0
    for s in by["oracle.solve"]:
        grid = sum(dur(c) for c in kids[s] if spans[c].name == "oracle.grid")
        objective = [c for c in kids[s] if spans[c].name == "problems.objective"]
        solve_ns += dur(s)
        grid_ns += grid
        descent_ms.append((dur(s) - grid) / 1e6)
        descent_evals.append(len(objective))
        eval_calls += len(objective)
        eval_rows += sum(spans[c].meta for c in objective)
    m["oracle.solve.calls"] = len(by["oracle.solve"])
    m["oracle.solve.failed"] = int(solve_failed)
    m["oracle.grid.self_ms"] = self_ms("oracle.grid")
    m["oracle.grid.points"] = int(_pct([spans[i].meta for i in by["oracle.grid"]], 50))
    m["oracle.grid.share"] = grid_ns / solve_ns if solve_ns else 0.0
    m["oracle.descent.ms_p50"] = _pct(descent_ms, 50)
    m["oracle.descent.ms_p90"] = _pct(descent_ms, 90)
    m["oracle.descent.evals_p50"] = _pct(descent_evals, 50)
    m["oracle.descent.evals_p90"] = _pct(descent_evals, 90)
    m["oracle.descent.rows_per_eval"] = eval_rows / eval_calls if eval_calls else 0.0

    m["cli.eval.ms"] = sum(dur(i) for i in by["cli.main"] if spans[i].meta == "eval") / 1e6
    m["cli.self_ms"] = self_ms("cli.main")
    return m


_SPECIAL_UNITS = {
    "macs": "MAC",
    "bytes": "B",
    "gmacs_per_s": "GMAC/s",
    "share": "ratio",
    "constraint_evals_per_objective": "ratio",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    last = name.rsplit(".", 1)[-1]
    if last in _SPECIAL_UNITS:
        return _SPECIAL_UNITS[last]
    if last == "ms" or last.endswith("_ms") or last.startswith("ms_"):
        return "ms"
    if last.endswith("_us"):
        return "us"
    return "count"
