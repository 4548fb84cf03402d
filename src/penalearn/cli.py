"""Command-line entry point.

Subcommands: ``train`` (writes a model file and a training-log CSV),
``eval`` (per-instance scorecard CSV), ``oracle`` (solve one instance and
print the solution), ``bench`` (benchmark-report CSV), ``table`` (comparison
against the bundled reference instances).

Configuration comes from, in increasing precedence: built-in defaults, the
``PENALEARN_SEED`` environment variable (seed only), a ``key = value`` config
file passed with ``--config``, and command-line flags.  Every key is listed
in ``--help`` with its default and accepted range.  Exit status: 0 success,
2 usage error (bad flags, bad config, missing inputs), 1 any other failure.
All file outputs are written to a temporary file first and renamed into
place, so a failed run leaves no partial output.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bench import emit_csv, run_benchmark, table_repro
from .errors import PenalearnError, RegistryError, UsageError
from .nn import Mlp, load_model, save_model, write_text_atomic
from .oracle import OracleConfig, solve
from .penalty import PenaltyConfig
from .problems import ParamSet, ProblemSpec, make_problem, problem_names, sample_params
from .training import TrainConfig, eval_reports_csv, evaluate, train

SEED_ENV_VAR = "PENALEARN_SEED"


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_float_tuple(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated decimals, got {text!r}") from exc


@dataclass(frozen=True)
class _Key:
    """One config key: file-format name, parser, default, range, description."""

    name: str
    parse: Callable[[str], object]
    default: object
    range_desc: str
    check: Callable[[object], bool]
    help: str
    flag_only: bool = False


_KEYS: tuple[_Key, ...] = (
    _Key("problem", str, None, "one of the registry names",
         lambda v: True, "problem to operate on"),
    _Key("seed", int, 0, "integer >= 0", lambda v: v >= 0,
         f"RNG seed; falls back to ${SEED_ENV_VAR} when set neither here nor in the config file"),
    _Key("epochs", int, 5000, ">= 1", lambda v: v >= 1, "training epochs"),
    _Key("samples", int, 1000, ">= 1", lambda v: v >= 1,
         "training parameter vectors sampled uniformly from the problem ranges"),
    _Key("batch_size", int, 100, ">= 1 and <= samples", lambda v: v >= 1,
         "minibatch size"),
    _Key("learning_rate", float, 1e-3, "> 0", lambda v: v > 0, "ADAM step size"),
    _Key("beta1", float, 0.9, "in (0, 1)", lambda v: 0 < v < 1,
         "ADAM first-moment decay"),
    _Key("beta2", float, 0.999, "in (0, 1)", lambda v: 0 < v < 1,
         "ADAM second-moment decay"),
    _Key("adam_epsilon", float, 1e-8, "> 0", lambda v: v > 0,
         "ADAM denominator offset"),
    _Key("eta", float, 1e8, "> 0", lambda v: v > 0,
         "penalty weight applied to every constraint"),
    _Key("gamma", float, 2.0, ">= 1", lambda v: v >= 1,
         "penalty exponent; values below 1 break penalty smoothness at the boundary"),
    _Key("penalty_mode", str, "piecewise", "piecewise | indicator",
         lambda v: v in ("piecewise", "indicator"),
         "piecewise is the trainable penalty; indicator is the zero-gradient diagnostic"),
    _Key("indicator_big", float, 1e12, "> 0", lambda v: v > 0,
         "loss added per violated constraint in indicator mode"),
    _Key("log_every", int, 100, ">= 1", lambda v: v >= 1,
         "epochs between training-log rows"),
    _Key("net_shape", _parse_int_tuple, None,
         "comma-separated layer sizes, e.g. 2,20,20,2",
         lambda v: len(v) >= 3 and all(s >= 1 for s in v),
         "network layer sizes; default is the problem's published shape"),
    _Key("feas_tolerance", float, 0.1, ">= 0", lambda v: v >= 0,
         "violation threshold for the training log's feasible fraction"),
    _Key("normalize_inputs", _parse_bool, True, "true | false", lambda v: True,
         "rescale parameters to [-1, 1] before layer 0 (folded into the saved model)"),
    _Key("grid_points", int, 201, ">= 2", lambda v: v >= 2,
         "oracle grid resolution per dimension"),
    _Key("starts", int, 16, ">= 0", lambda v: v >= 0,
         "random descent starts (the grid point is always added when the dimension allows)"),
    _Key("descent_steps", int, 400, ">= 1", lambda v: v >= 1,
         "descent iterations per penalty-weight stage"),
    _Key("descent_lr", float, 1e-2, "> 0", lambda v: v > 0,
         "initial descent step size"),
    _Key("count", int, 20, ">= 1", lambda v: v >= 1,
         "instances to sample for eval/bench"),
    _Key("model", str, None, "file path", lambda v: True,
         "model file to load (eval/bench/table) "),
    _Key("out", str, None, "file path", lambda v: True,
         "output path; defaults to <problem>-derived names in the working directory"),
    _Key("params", _parse_float_tuple, None, "comma-separated decimals",
         lambda v: len(v) >= 1,
         "one explicit parameter vector (oracle, single-instance eval)", flag_only=True),
)

_KEY_BY_NAME = {k.name: k for k in _KEYS}


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully-resolved settings for one subcommand invocation."""

    command: str
    problem: str
    seed: int
    epochs: int
    samples: int
    batch_size: int
    learning_rate: float
    beta1: float
    beta2: float
    adam_epsilon: float
    eta: float
    gamma: float
    penalty_mode: str
    indicator_big: float
    log_every: int
    net_shape: Optional[tuple[int, ...]]
    feas_tolerance: float
    normalize_inputs: bool
    grid_points: int
    starts: int
    descent_steps: int
    descent_lr: float
    count: int
    model: Optional[str]
    out: Optional[str]
    params: Optional[tuple[float, ...]]

    def penalty_config(self) -> PenaltyConfig:
        return PenaltyConfig(
            mode=self.penalty_mode,
            eta_ineq=self.eta,
            eta_eq=self.eta,
            gamma=self.gamma,
            indicator_big=self.indicator_big,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            sample_count=self.samples,
            epochs=self.epochs,
            batch_size=self.batch_size,
            seed=self.seed,
            learning_rate=self.learning_rate,
            beta1=self.beta1,
            beta2=self.beta2,
            adam_epsilon=self.adam_epsilon,
            penalty=self.penalty_config(),
            log_every=self.log_every,
            net_shape=self.net_shape,
            feas_tolerance=self.feas_tolerance,
            normalize_inputs=self.normalize_inputs,
        )

    def oracle_config(self) -> OracleConfig:
        return OracleConfig(
            grid_points_per_dim=self.grid_points,
            starts=self.starts,
            descent_steps=self.descent_steps,
            descent_lr=self.descent_lr,
            gamma=self.gamma,
            seed=self.seed,
        )


def parse_config_file(path: str) -> dict:
    """Read the documented ``key = value`` format; reject unknown keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}"
            )
        key = key.strip()
        value = value.strip()
        spec = _KEY_BY_NAME.get(key)
        if spec is None or spec.flag_only:
            accepted = ", ".join(k.name for k in _KEYS if not k.flag_only)
            raise UsageError(
                f"{path}:{lineno}: unknown config key {key!r}; accepted keys: {accepted}"
            )
        values[key] = _convert(spec, value, f"{path}:{lineno}")
    return values


def _convert(spec: _Key, text: str, where: str):
    try:
        value = spec.parse(text)
    except ValueError as exc:
        raise UsageError(f"{where}: key {spec.name!r}: {exc}") from exc
    if not spec.check(value):
        raise UsageError(
            f"{where}: key {spec.name!r} out of range (must be {spec.range_desc}), "
            f"got {text}"
        )
    return value


def _env_seed() -> Optional[int]:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    try:
        seed = int(raw)
    except ValueError as exc:
        raise UsageError(f"${SEED_ENV_VAR} must be an integer, got {raw!r}") from exc
    if seed < 0:
        raise UsageError(f"${SEED_ENV_VAR} must be >= 0, got {seed}")
    return seed


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < environment seed < config file < flags, then validate."""
    values = {k.name: k.default for k in _KEYS}
    env = _env_seed()
    if env is not None:
        values["seed"] = env
    if args.config:
        values.update(parse_config_file(args.config))
    for key in _KEY_BY_NAME:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value

    if not values["problem"]:
        raise UsageError(
            f"no problem selected; pass --problem or put 'problem = <name>' in the "
            f"config file (registry: {', '.join(problem_names())})"
        )
    try:
        spec = make_problem(values["problem"])
    except RegistryError as exc:
        raise UsageError(str(exc)) from exc
    if values["batch_size"] > values["samples"]:
        raise UsageError(
            f"batch_size ({values['batch_size']}) exceeds samples ({values['samples']})"
        )
    shape = values["net_shape"]
    if shape is not None:
        if shape[0] != spec.param_dim or shape[-1] != spec.decision_dim:
            raise UsageError(
                f"net_shape {shape} must start with the parameter dimension "
                f"({spec.param_dim}) and end with the decision dimension "
                f"({spec.decision_dim}) for {spec.name}"
            )
    if values["params"] is not None and len(values["params"]) != spec.param_dim:
        raise UsageError(
            f"--params needs {spec.param_dim} decimals for {spec.name}, "
            f"got {len(values['params'])}"
        )
    return RunConfig(command=args.command, **values)


# ---------------------------------------------------------------------------
# output helpers


def _load_model_for(cfg: RunConfig, spec: ProblemSpec) -> Mlp:
    if not cfg.model:
        raise UsageError(f"{cfg.command} requires --model <file>")
    if not os.path.exists(cfg.model):
        raise UsageError(f"model file not found: {cfg.model}")
    net = load_model(cfg.model)
    if net.input_dim != spec.param_dim or net.output_dim != spec.decision_dim:
        raise UsageError(
            f"model {cfg.model} maps {net.input_dim} -> {net.output_dim}, but "
            f"{spec.name} needs {spec.param_dim} -> {spec.decision_dim}"
        )
    return net


def _default_out(cfg: RunConfig, suffix: str) -> str:
    return cfg.out if cfg.out else f"{cfg.problem}{suffix}"


def _fmt_vec(v) -> str:
    return "(" + ", ".join("%.10g" % float(c) for c in v) + ")"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_train(cfg: RunConfig) -> int:
    spec = make_problem(cfg.problem)
    net, log = train(spec, cfg.train_config())
    model_path = _default_out(cfg, ".model")
    log_path = (
        model_path[: -len(".model")] if model_path.endswith(".model") else model_path
    ) + ".trainlog.csv"
    save_model(net, model_path)
    write_text_atomic(log_path, log.to_csv())
    final = log.final()
    print(
        f"trained {cfg.problem}: {cfg.epochs} epochs, final loss "
        f"{final.mean_loss:.6g}, feasible fraction {final.feasible_frac:.3f}"
    )
    print(f"model -> {model_path}")
    print(f"training log -> {log_path}")
    return 0


def _cmd_eval(cfg: RunConfig) -> int:
    spec = make_problem(cfg.problem)
    net = _load_model_for(cfg, spec)
    if cfg.params is not None:
        values = np.array([cfg.params])
    else:
        values = sample_params(spec, cfg.count, cfg.seed).values
    reports = evaluate(net, spec, ParamSet(values=values, seed=cfg.seed), cfg.penalty_config())
    out = _default_out(cfg, ".eval.csv")
    write_text_atomic(out, eval_reports_csv(reports))
    feasible = sum(1 for r in reports if r.feasible)
    print(f"evaluated {len(reports)} instances; {feasible} feasible")
    print(f"report -> {out}")
    return 0


def _cmd_oracle(cfg: RunConfig) -> int:
    spec = make_problem(cfg.problem)
    if cfg.params is None:
        raise UsageError("oracle requires --params c1,c2,... (one parameter vector)")
    sol = solve(spec, np.array(cfg.params), cfg.oracle_config())
    print(
        f"problem={cfg.problem} params={_fmt_vec(cfg.params)} x={_fmt_vec(sol.x)} "
        f"objective={sol.objective:.10g} max_violation={sol.max_violation:.3e} "
        f"method={sol.method} time_s={sol.solve_time_s:.3f}"
    )
    return 0


def _cmd_bench(cfg: RunConfig) -> int:
    spec = make_problem(cfg.problem)
    net = _load_model_for(cfg, spec)
    params = sample_params(spec, cfg.count, cfg.seed)
    report = run_benchmark(spec, net, cfg.oracle_config(), params)
    out = _default_out(cfg, ".bench.csv")
    write_text_atomic(out, emit_csv(report))
    a = report.aggregates
    print(
        f"benchmarked {cfg.problem} on {a.row_count} instances "
        f"({a.failure_count} oracle failures): median gap {a.median_gap:.6g}, "
        f"feasible {a.feasible_frac_loose:.0%} @0.1 / {a.feasible_frac_strict:.0%} @1e-3, "
        f"speedup {a.speedup:.0f}x, {a.mac_count} MACs"
    )
    print(f"report -> {out}")
    return 0


def _cmd_table(cfg: RunConfig) -> int:
    spec = make_problem(cfg.problem)
    net = _load_model_for(cfg, spec)
    repro = table_repro(cfg.problem, net, cfg.oracle_config())
    sys.stdout.write(repro.text())
    if cfg.out:
        write_text_atomic(cfg.out, repro.csv())
        print(f"csv -> {cfg.out}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "oracle": _cmd_oracle,
    "bench": _cmd_bench,
    "table": _cmd_table,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="penalearn",
        description=(
            "Train a small network to map problem parameters to near-optimal "
            "solutions of constrained problems, and benchmark it against a "
            "numerical oracle."
        ),
        epilog=(
            "Config file: the same keys as the long flags, one 'key = value' per "
            "line, '#' comments allowed. Precedence: flags > config file > "
            f"${SEED_ENV_VAR} (seed only) > defaults."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    descriptions = {
        "train": "train a model and write it plus a training-log CSV",
        "eval": "score a trained model's outputs instance by instance",
        "oracle": "solve one instance numerically and print the solution",
        "bench": "compare model outputs to oracle solves over sampled instances",
        "table": "reproduce the bundled reference-instance comparison",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", metavar="FILE", help="key = value config file")
        for key in _KEYS:
            flag = "--" + key.name.replace("_", "-")
            default_text = "problem-specific" if key.default is None else key.default
            if key.name in ("problem", "model", "out", "params"):
                default_text = {"problem": "required", "model": "required for "
                                "eval/bench/table", "out": "derived from problem name",
                                "params": "sampled instead"}[key.name]
            p.add_argument(
                flag,
                metavar=key.name.upper(),
                type=lambda text, k=key, f=flag: _convert(k, text, f"flag {f}"),
                default=None,
                help=f"{key.help} (default: {default_text}; range: {key.range_desc})",
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = build_run_config(args)
        return _COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"penalearn: {exc}", file=sys.stderr)
        return 2
    except PenalearnError as exc:
        print(f"penalearn: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"penalearn: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
