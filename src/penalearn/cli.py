"""Command-line entry point.

Subcommands (``_COMMANDS``): ``train`` (writes a model file and a
training-log CSV), ``eval`` (per-instance scorecard CSV), ``oracle`` (solve
one instance and print the solution), ``bench`` (benchmark-report CSV),
``table`` (comparison against the bundled reference instances).

Configuration comes from, in increasing precedence: built-in defaults, the
``PENALEARN_SEED`` environment variable (seed only), a ``key = value`` config
file passed with ``--config``, which may hold every subcommand's keys, and
command-line flags.  A subcommand takes flags for only the keys it reads; its
``--help`` lists each with its default and accepted range.  Exit status: 0
success, 2 usage error (bad or unread flags, bad config, missing inputs), 1
any other failure.
All file outputs are written to a temporary file first and renamed into
place, so a failed run leaves no partial output.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bench import emit_csv, run_benchmark, table_repro
from .errors import ConfigError, PenalearnError, RegistryError, UsageError, require_int
from .nn import Mlp, load_model, save_model, write_text_atomic
from .oracle import OracleConfig, solve
from .penalty import PenaltyConfig
from .problems import ProblemSpec, make_problem, problem_names, sample_params
from .training import TrainConfig, eval_reports_csv, evaluate, resolve_net_shape, train

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
        values = tuple(float(tok) for tok in text.split(","))
        ok = all(math.isfinite(v) for v in values)
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"expected comma-separated finite decimals, got {text!r}")
    return values


@dataclass(frozen=True)
class _Key:
    """One config key: file-format name, parser, range, description, and the
    config fields it sets, as (config class, field name) pairs.

    Keys that set no field are the CLI's own; ``RunConfig`` holds them.
    Defaults and range checks live in the config dataclasses.
    """

    name: str
    parse: Callable[[str], object]
    range_desc: str
    help: str
    sets: tuple[tuple[type, str], ...] = ()
    flag_only: bool = False


def _sets(cls, *fields: str) -> tuple[tuple[type, str], ...]:
    return tuple((cls, f) for f in fields)


_KEYS: tuple[_Key, ...] = (
    _Key("problem", str, "one of the registry names", "problem to operate on"),
    _Key("seed", int, "integer >= 0",
         f"RNG seed; falls back to ${SEED_ENV_VAR} when set neither here nor in the config file",
         _sets(TrainConfig, "seed") + _sets(OracleConfig, "seed")),
    _Key("epochs", int, ">= 1", "training epochs", _sets(TrainConfig, "epochs")),
    _Key("samples", int, ">= 1",
         "training parameter vectors sampled uniformly from the problem ranges",
         _sets(TrainConfig, "sample_count")),
    _Key("batch_size", int, ">= 1 and <= samples", "minibatch size",
         _sets(TrainConfig, "batch_size")),
    _Key("learning_rate", float, "> 0", "ADAM step size", _sets(TrainConfig, "learning_rate")),
    _Key("beta1", float, "in (0, 1)", "ADAM first-moment decay", _sets(TrainConfig, "beta1")),
    _Key("beta2", float, "in (0, 1)", "ADAM second-moment decay", _sets(TrainConfig, "beta2")),
    _Key("adam_epsilon", float, "> 0", "ADAM denominator offset",
         _sets(TrainConfig, "adam_epsilon")),
    _Key("eta", float, "> 0", "penalty weight applied to every constraint",
         _sets(PenaltyConfig, "eta")),
    _Key("gamma", float, ">= 1",
         "training penalty exponent; values below 1 break penalty smoothness at the boundary",
         _sets(PenaltyConfig, "gamma")),
    _Key("penalty_mode", str, "piecewise | indicator",
         "piecewise is the trainable penalty; indicator is the zero-gradient diagnostic",
         _sets(PenaltyConfig, "mode")),
    _Key("indicator_big", float, "> 0",
         "loss added per violated constraint in indicator mode",
         _sets(PenaltyConfig, "indicator_big")),
    _Key("log_every", int, ">= 1", "epochs between training-log rows",
         _sets(TrainConfig, "log_every")),
    _Key("net_shape", _parse_int_tuple, "comma-separated layer sizes, e.g. 2,20,20,2",
         "network layer sizes; default is the problem's published shape",
         _sets(TrainConfig, "net_shape")),
    _Key("feas_tolerance", float, ">= 0",
         "violation threshold for the training log's feasible fraction",
         _sets(TrainConfig, "feas_tolerance")),
    _Key("normalize_inputs", _parse_bool, "true | false",
         "rescale parameters to [-1, 1] before layer 0 (folded into the saved model)",
         _sets(TrainConfig, "normalize_inputs")),
    _Key("grid_points", int, ">= 2", "oracle grid resolution per dimension",
         _sets(OracleConfig, "grid_points_per_dim")),
    _Key("starts", int, ">= 0",
         "random descent starts (the grid point is always added when the dimension allows)",
         _sets(OracleConfig, "starts")),
    _Key("descent_steps", int, ">= 1", "descent iterations per multiplier stage",
         _sets(OracleConfig, "descent_steps")),
    _Key("descent_lr", float, "> 0", "initial descent step size",
         _sets(OracleConfig, "descent_lr")),
    _Key("count", int, ">= 1", "instances to sample"),
    _Key("model", str, "file path", "model file to load"),
    _Key("out", str, "file path", "output path"),
    _Key("params", _parse_float_tuple, "comma-separated finite decimals",
         "one explicit parameter vector", flag_only=True),
)

_KEY_BY_NAME = {k.name: k for k in _KEYS}
_KEY_BY_FIELD = {fld: k.name for k in _KEYS for _, fld in k.sets}


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully-resolved settings for one subcommand invocation."""

    command: str
    spec: ProblemSpec
    train: TrainConfig
    oracle: OracleConfig
    count: int = 20
    model: Optional[str] = None
    out: Optional[str] = None
    params: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        require_int(self, "count", 1)


def parse_config_file(path: str) -> dict:
    """Read the documented ``key = value`` format; reject unknown keys.

    Returns ``{key: (value, "path:line")}``.
    """
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
        where = f"{path}:{lineno}"
        values[key] = (_convert(spec, value, where), where)
    return values


def _convert(spec: _Key, text: str, where: str):
    try:
        return spec.parse(text)
    except ValueError as exc:
        raise UsageError(f"{where}: key {spec.name!r}: {exc}") from exc


def _env_seed() -> dict:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return {}
    where = f"${SEED_ENV_VAR}"
    try:
        return {"seed": (int(raw), where)}
    except ValueError as exc:
        raise UsageError(f"{where} must be an integer, got {raw!r}") from exc


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge environment seed < config file < flags over the config
    dataclasses' defaults, and let the dataclasses validate."""
    given = _env_seed()
    if args.config:
        given.update(parse_config_file(args.config))
    for key in _KEY_BY_NAME:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            given[key] = (flag_value, "flag --" + key.replace("_", "-"))

    kwargs = {PenaltyConfig: {}, TrainConfig: {}, OracleConfig: {}}
    own = {}  # the CLI's own keys, which set no config field
    for key, (value, _) in given.items():
        sets = _KEY_BY_NAME[key].sets
        for cls, fld in sets:
            kwargs[cls][fld] = value
        if not sets:
            own[key] = value

    name = own.pop("problem", None)
    if not name:
        raise UsageError(
            f"no problem selected; pass --problem or put 'problem = <name>' in the "
            f"config file (registry: {', '.join(problem_names())})"
        )
    try:
        spec = make_problem(name)
    except RegistryError as exc:
        raise UsageError(str(exc)) from exc
    try:
        train_cfg = TrainConfig(penalty=PenaltyConfig(**kwargs[PenaltyConfig]),
                                **kwargs[TrainConfig])
        oracle_cfg = OracleConfig(**kwargs[OracleConfig])
        resolve_net_shape(spec, train_cfg)
        run = RunConfig(args.command, spec, train_cfg, oracle_cfg, **own)
    except ConfigError as exc:
        key = _KEY_BY_FIELD.get(exc.field, exc.field)
        where = f"{given[key][1]}: key {key!r}" if key in given else f"key {key!r} (default)"
        raise UsageError(f"{where}: {exc}") from exc
    if run.params is not None and len(run.params) != spec.param_dim:
        raise UsageError(
            f"--params needs {spec.param_dim} decimals for {spec.name}, "
            f"got {len(run.params)}"
        )
    return run


# ---------------------------------------------------------------------------
# output helpers


def _load_model_for(cfg: RunConfig) -> Mlp:
    spec = cfg.spec
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
    return cfg.out if cfg.out else f"{cfg.spec.name}{suffix}"


def _fmt_vec(v) -> str:
    return "(" + ", ".join("%.10g" % float(c) for c in v) + ")"


def _warn_params_out_of_range(spec: ProblemSpec, params) -> None:
    """One stderr line per ``--params`` entry outside ``spec.param_ranges``.

    Such values still run; the ranges are where training samples instances,
    so results outside them are extrapolation."""
    for i, (value, (lo, hi)) in enumerate(zip(params, spec.param_ranges), start=1):
        if not lo <= value <= hi:
            print(
                f"penalearn: warning: --params c{i} = {value:g} is outside "
                f"{spec.name}'s range [{lo:g}, {hi:g}]",
                file=sys.stderr,
            )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_train(cfg: RunConfig) -> int:
    net, log = train(cfg.spec, cfg.train)
    model_path = _default_out(cfg, ".model")
    log_path = (
        model_path[: -len(".model")] if model_path.endswith(".model") else model_path
    ) + ".trainlog.csv"
    save_model(net, model_path)
    write_text_atomic(log_path, log.to_csv())
    final = log.final()
    print(
        f"trained {cfg.spec.name}: {cfg.train.epochs} epochs, final loss "
        f"{final.mean_loss:.6g}, feasible fraction {final.feasible_frac:.3f}"
    )
    print(f"model -> {model_path}")
    print(f"training log -> {log_path}")
    return 0


def _cmd_eval(cfg: RunConfig) -> int:
    spec = cfg.spec
    net = _load_model_for(cfg)
    if cfg.params is not None:
        _warn_params_out_of_range(spec, cfg.params)
        P = np.array([cfg.params])
    else:
        P = sample_params(spec, cfg.count, cfg.train.seed)
    report = evaluate(net, spec, P)
    out = _default_out(cfg, ".eval.csv")
    write_text_atomic(out, eval_reports_csv(report, spec))
    print(f"evaluated {len(P)} instances; {report.feasible.sum()} feasible")
    print(f"report -> {out}")
    return 0


def _cmd_oracle(cfg: RunConfig) -> int:
    if cfg.params is None:
        raise UsageError("oracle requires --params c1,c2,... (one parameter vector)")
    _warn_params_out_of_range(cfg.spec, cfg.params)
    sol = solve(cfg.spec, np.array(cfg.params), cfg.oracle)
    print(
        f"problem={cfg.spec.name} params={_fmt_vec(cfg.params)} x={_fmt_vec(sol.x)} "
        f"objective={sol.objective:.10g} max_violation={sol.max_violation:.3e} "
        f"method={sol.method} time_s={sol.solve_time_s:.3f}"
    )
    return 0


def _cmd_bench(cfg: RunConfig) -> int:
    spec = cfg.spec
    net = _load_model_for(cfg)
    report = run_benchmark(spec, net, cfg.oracle, sample_params(spec, cfg.count, cfg.train.seed))
    out = _default_out(cfg, ".bench.csv")
    write_text_atomic(out, emit_csv(report))
    a = report.aggregates
    print(
        f"benchmarked {spec.name} on {a.row_count} instances "
        f"({a.failure_count} oracle failures): median gap {a.median_gap:.6g}, "
        f"feasible {a.feasible_frac_loose:.0%} @0.1 / {a.feasible_frac_strict:.0%} @1e-3, "
        f"speedup {a.speedup:.0f}x, {a.mac_count} MACs"
    )
    print(f"report -> {out}")
    return 0


def _cmd_table(cfg: RunConfig) -> int:
    net = _load_model_for(cfg)
    repro = table_repro(cfg.spec.name, net, cfg.oracle)
    sys.stdout.write(repro.text())
    if cfg.out:
        write_text_atomic(cfg.out, repro.csv())
        print(f"csv -> {cfg.out}")
    return 0


# name: (function, one-line help, the keys the command reads: its only flags)
_COMMANDS = {
    "train": (_cmd_train, "train a model and write it plus a training-log CSV",
              "problem seed epochs samples batch_size learning_rate beta1 beta2 adam_epsilon "
              "eta gamma penalty_mode indicator_big log_every net_shape feas_tolerance "
              "normalize_inputs out"),
    "eval": (_cmd_eval, "score a trained model's outputs instance by instance",
             "problem seed count model out params"),
    "oracle": (_cmd_oracle, "solve one instance numerically and print the solution",
               "problem seed params grid_points starts descent_steps descent_lr"),
    "bench": (_cmd_bench, "compare model outputs to oracle solves over sampled instances",
              "problem seed count model out grid_points starts descent_steps descent_lr"),
    "table": (_cmd_table, "reproduce the bundled reference-instance comparison",
              "problem seed model out grid_points starts descent_steps descent_lr"),
}


# keyed by key name, or by (command, key name) where one command differs
_OWN_DEFAULT_TEXT = {
    "problem": "required",
    "model": "required",
    "out": "derived from problem name",
    "params": "sampled instead",
    ("oracle", "params"): "required",
    ("table", "out"): "no CSV",
}


def _default_text(key: _Key, command: str):
    text = _OWN_DEFAULT_TEXT.get((command, key.name), _OWN_DEFAULT_TEXT.get(key.name))
    if text:
        return text
    cls, fld = key.sets[0] if key.sets else (RunConfig, key.name)
    default = cls.__dataclass_fields__[fld].default
    return "problem-specific" if default is None else default


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``penalearn`` parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="penalearn",
        description=(
            "Train a small network to map problem parameters to near-optimal "
            "solutions of constrained problems, and benchmark it against a "
            "numerical oracle."
        ),
        epilog=(
            "Config file: one 'key = value' per line, '#' comments allowed; keys are "
            "any subcommand's long flags, '_' for '-'. Precedence: flags > config file > "
            f"${SEED_ENV_VAR} (seed only) > defaults."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, desc, keys) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=desc, description=desc)
        cmd.add_argument("--config", metavar="FILE",
                         help="key = value config file; it may hold any subcommand's keys")
        for key in (k for k in _KEYS if k.name in keys.split()):
            flag = "--" + key.name.replace("_", "-")
            cmd.add_argument(
                flag,
                metavar=key.name.upper(),
                type=lambda text, k=key, f=flag: _convert(k, text, f"flag {f}"),
                help=f"{key.help} (default: {_default_text(key, name)}; "
                     f"range: {key.range_desc})",
            )
    return parser


_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _join_negative_params(argv: list[str]) -> list[str]:
    """Rewrite ``--params -0.5,0.5`` as ``--params=-0.5,0.5``.

    argparse reads a token that starts with '-' and is not a plain number as
    an option, so a vector with a negative first entry would lose its flag.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--params" and _NEGATIVE_VALUE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _join_negative_params(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
        cfg = build_run_config(args)
        return _COMMANDS[cfg.command][0](cfg)
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
