"""Command-line surface: subcommands, config precedence, exit codes."""

import dataclasses
import os
import re

import numpy as np
import pytest

from penalearn import (
    AdamState,
    ConfigError,
    Constraint,
    ModelFormatError,
    OracleConfig,
    PenaltyConfig,
    TrainConfig,
    grid_scan,
    init_mlp,
    evaluate,
    kkt_residual,
    load_model,
    loss_terms_batch,
    mac_count,
    make_problem,
    run_benchmark,
    sample_params,
    save_model,
    solve,
    train,
)
from penalearn import cli
from penalearn.cli import _KEYS, build_parser, main, parse_config_file
from penalearn.errors import UsageError
from penalearn.problems import disk_constraint

FAST_TRAIN = [
    "--epochs", "30", "--samples", "80", "--batch-size", "20", "--log-every", "10",
]


ORACLE_KEYS = ["grid_points", "starts", "descent_steps", "descent_lr"]
# the keys each subcommand reads, which are the only flags it takes
COMMAND_KEYS = {
    "train": ["problem", "seed", "epochs", "samples", "batch_size", "learning_rate", "beta1",
              "beta2", "adam_epsilon", "eta", "gamma", "penalty_mode", "indicator_big",
              "log_every", "net_shape", "feas_tolerance", "normalize_inputs", "out"],
    "eval": ["problem", "seed", "count", "model", "out", "params"],
    "oracle": ["problem", "seed", "params"] + ORACLE_KEYS,
    "bench": ["problem", "seed", "count", "model", "out"] + ORACLE_KEYS,
    "table": ["problem", "seed", "model", "out"] + ORACLE_KEYS,
}


def run(argv):
    return main(argv)


def _flag(key):
    return "--" + key.replace("_", "-")


@pytest.mark.parametrize("command", ["train", "eval", "oracle", "bench", "table"])
def test_help_exits_zero_and_lists_keys(command, capsys):
    with pytest.raises(SystemExit) as info:
        run([command, "--help"])
    assert info.value.code == 0
    text = capsys.readouterr().out
    listed = re.findall(r"^  (--[a-z0-9-]+)", text, re.MULTILINE)
    assert sorted(listed) == sorted(["--config"] + [_flag(k) for k in COMMAND_KEYS[command]])
    assert "range:" in text and "default:" in text


@pytest.mark.parametrize("command", ["train", "oracle", "bench"])
def test_help_says_each_real_key_must_be_finite(command, capsys):
    # require_real rejects inf and nan for every real setting: the help says so
    with pytest.raises(SystemExit):
        run([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    real = [k.name for k in _KEYS if k.parse is float and k.name in COMMAND_KEYS[command]]
    assert real
    for key in COMMAND_KEYS[command]:
        entry = re.search(rf"{_flag(key)} {key.upper()} (.*?\(default: [^;]*; range: [^)]*\))",
                          text)
        assert ("range: finite, " in entry.group(1)) == (key in real), key


@pytest.mark.parametrize("argv,unread", [
    (["train", "--count", "3"], "--count"),
    (["eval", "--epochs", "3"], "--epochs"),
    (["oracle", "--params", "1,1", "--epochs", "3"], "--epochs"),
    (["oracle", "--params", "1,1", "--model", "m.model"], "--model"),
    (["bench", "--params", "1,1"], "--params"),
    (["table", "--count", "3"], "--count"),
])
def test_a_flag_the_command_does_not_read_exits_2_naming_it(argv, unread, capsys):
    with pytest.raises(SystemExit) as info:
        run(argv + ["--problem", "rosenbrock-1c"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {unread}" in err
    # under the usage line of the command, which lists the flags it does take
    assert err.startswith(f"usage: penalearn {argv[0]} [-h] [--config FILE]")


def test_one_config_file_with_every_key_serves_all_five_commands(tmp_path, monkeypatch,
                                                                capsys):
    monkeypatch.chdir(tmp_path)
    values = dict(
        problem="rosenbrock-1c", seed=2, epochs=2, samples=8, batch_size=4,
        learning_rate=0.002, beta1=0.8, beta2=0.99, adam_epsilon=1e-7, eta=1e6, gamma=2,
        penalty_mode="piecewise", indicator_big=1e9, log_every=1, net_shape="2,4,2",
        feas_tolerance=0.2, normalize_inputs="false", grid_points=11, starts=1,
        descent_steps=5, descent_lr=0.02, count=2,
        # train writes the model to out; the other commands name their outputs by flag
        model="m.model", out="m.model",
    )
    assert set(values) == {key.name for key in _KEYS if not key.flag_only}
    (tmp_path / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    argv = ["--config", "run.cfg"]
    assert run(["train"] + argv) == 0
    assert run(["eval"] + argv + ["--out", "e.csv"]) == 0
    assert len((tmp_path / "e.csv").read_text().splitlines()) == 3
    assert run(["oracle"] + argv + ["--params", "1,1"]) == 0
    assert run(["bench"] + argv + ["--out", "b.csv"]) == 0
    assert run(["table"] + argv + ["--out", "t.csv"]) == 0
    assert (tmp_path / "b.csv").exists() and (tmp_path / "t.csv").exists()
    assert capsys.readouterr().err == ""


def test_top_level_requires_subcommand():
    with pytest.raises(SystemExit) as info:
        run([])
    assert info.value.code == 2


def test_train_writes_model_and_log(tmp_path, capsys):
    out = tmp_path / "m.model"
    code = run(["train", "--problem", "rosenbrock-1c", "--seed", "3",
                "--out", str(out)] + FAST_TRAIN)
    assert code == 0
    assert out.exists()
    log = tmp_path / "m.trainlog.csv"
    assert log.exists()
    header = log.read_text().splitlines()[0]
    assert header == "epoch,mean_loss,mean_objective,mean_penalty,feasible_frac,elapsed_s"
    assert "model ->" in capsys.readouterr().out


def test_train_twice_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.model", tmp_path / "b.model"
    for out in (a, b):
        assert run(["train", "--problem", "rosenbrock-1c", "--seed", "7",
                    "--out", str(out)] + FAST_TRAIN) == 0
    assert a.read_bytes() == b.read_bytes()


def test_oracle_prints_baseline_solution(capsys):
    assert run(["oracle", "--problem", "rosenbrock-1c", "--params", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "x=(" in out
    x1, x2 = out.split("x=(")[1].split(")")[0].split(",")
    assert abs(float(x1) - 0.8082) < 1e-2
    assert abs(float(x2) - 0.5889) < 1e-2


def test_parser_is_built_once_and_keeps_no_flag_value(monkeypatch, capsys):
    assert build_parser() is build_parser()
    monkeypatch.delenv("PENALEARN_SEED", raising=False)
    configs, real = [], cli.solve
    monkeypatch.setattr(cli, "solve",
                        lambda spec, p, cfg: configs.append(cfg) or real(spec, p, cfg))
    argv = ["oracle", "--problem", "rosenbrock-1c", "--params", "25,0.3"]
    assert run(argv + ["--seed", "5", "--starts", "2"]) == 0
    assert run(argv) == 0
    assert configs == [OracleConfig(seed=5, starts=2), OracleConfig()]


def test_eval_single_instance(tmp_path, capsys):
    model = tmp_path / "m.model"
    run(["train", "--problem", "rosenbrock-1c", "--out", str(model)] + FAST_TRAIN)
    out = tmp_path / "e.csv"
    code = run(["eval", "--problem", "rosenbrock-1c", "--model", str(model),
                "--params", "1,1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("c1,c2,x1,x2,f0,")


def test_oracle_accepts_a_negative_first_param(capsys):
    assert run(["oracle", "--problem", "rosenbrock-1c", "--params", "-0.5,0.5"]) == 0
    assert "params=(-0.5, 0.5)" in capsys.readouterr().out


def test_eval_accepts_a_negative_first_param(tmp_path):
    model = tmp_path / "m.model"
    run(["train", "--problem", "rosenbrock-1c", "--out", str(model)] + FAST_TRAIN)
    out = tmp_path / "e.csv"
    assert run(["eval", "--problem", "rosenbrock-1c", "--model", str(model),
                "--params", "-0.5,0.5", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert [float(v) for v in row[:2]] == [-0.5, 0.5]


@pytest.mark.parametrize("argv,warned", [
    (["eval", "--params", "1e308,1"], ["c1 = 1e+308 is outside rosenbrock-1c's range [0, 30]"]),
    (["oracle", "--params", "-0.5,0.5"], ["c1 = -0.5 is outside rosenbrock-1c's range [0, 30]"]),
    (["oracle", "--params", "31,1.5"], ["c1 = 31 is outside", "c2 = 1.5 is outside "
                                        "rosenbrock-1c's range [0, 1]"]),
    (["oracle", "--params", "1,1"], []),
])
def test_out_of_range_params_warn_on_stderr_only(argv, warned, tmp_path, capsys):
    if argv[0] == "eval":
        model = tmp_path / "m.model"
        save_model(init_mlp((2, 4, 2), seed=0), str(model))
        argv = argv + ["--model", str(model), "--out", str(tmp_path / "e.csv")]
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(argv + ["--problem", "rosenbrock-1c"])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == len(warned)
    for line, text in zip(lines, warned):
        assert line.startswith("penalearn: warning: --params ") and text in line
    assert "warning" not in captured.out


def test_oracle_answers_with_the_grid_point_where_no_start_can_be_evaluated(capsys):
    # c1 = 1e308 overflows every start's gradient; the grid point still has a
    # finite objective, so it is the answer (exit 0), with a range warning
    assert run(["oracle", "--problem", "rosenbrock-1c", "--params", "1e308,1"]) == 0
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("penalearn: warning: --params c1 = 1e+308 is outside")
    assert captured.out.startswith("problem=rosenbrock-1c params=(1e+308, 1) x=(0, 0) "
                                   "objective=1 max_violation=0.000e+00 method=grid time_s=")


def test_bench_and_table(tmp_path, capsys):
    model = tmp_path / "m.model"
    run(["train", "--problem", "rosenbrock-1c", "--out", str(model)] + FAST_TRAIN)
    bench_out = tmp_path / "b.csv"
    code = run(["bench", "--problem", "rosenbrock-1c", "--model", str(model),
                "--count", "3", "--out", str(bench_out)])
    assert code == 0
    assert "# problem=rosenbrock-1c" in bench_out.read_text()
    assert "speedup" in capsys.readouterr().out

    table_out = tmp_path / "t.csv"
    code = run(["table", "--problem", "rosenbrock-1c", "--model", str(model),
                "--out", str(table_out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "x_baseline" in text
    assert table_out.exists()


def test_usage_errors_exit_2(tmp_path):
    assert run(["bench", "--problem", "rosenbrock-1c"]) == 2  # no model
    assert run(["oracle", "--problem", "rosenbrock-1c"]) == 2  # no params
    assert run(["train", "--problem", "unknown-problem"]) == 2
    assert run(["train"]) == 2  # no problem at all
    assert run(["oracle", "--problem", "rosenbrock-1c", "--params", "1,2,3"]) == 2
    missing = tmp_path / "no-such.model"
    assert run(["eval", "--problem", "rosenbrock-1c", "--model", str(missing)]) == 2
    assert run(["train", "--config", str(tmp_path / "no-such.cfg")]) == 2  # unreadable
    no_equals = tmp_path / "no-equals.cfg"
    no_equals.write_text("problem rosenbrock-1c\n")
    assert run(["train", "--config", str(no_equals)]) == 2
    assert run(["train", "--problem", "rosenbrock-1c", "--normalize-inputs", "maybe"]) == 2
    assert run(["train", "--problem", "rosenbrock-1c", "--net-shape", "2,x,2"]) == 2
    assert run(["oracle", "--problem", "rosenbrock-1c", "--params", "1,abc"]) == 2
    wrong_dims = tmp_path / "wrong-dims.model"  # 3 -> 2, and rosenbrock-1c maps 2 -> 2
    save_model(init_mlp((3, 4, 2), seed=0), str(wrong_dims))
    assert run(["eval", "--problem", "rosenbrock-1c", "--model", str(wrong_dims)]) == 2


@pytest.mark.parametrize("text, value", [("true", True), ("YES", True), ("on", True),
                                         ("1", True), ("false", False), ("off", False)])
def test_normalize_inputs_reads_every_boolean_spelling(text, value):
    parser, _ = build_parser()
    args = parser.parse_args(["train", "--problem", "rosenbrock-1c", "--normalize-inputs", text])
    assert cli.build_run_config(args).train.normalize_inputs is value


def test_bad_flag_values_exit_2(capsys):
    assert run(["train", "--problem", "rosenbrock-1c", "--gamma", "0.5"]) == 2
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "--problem", "ackley-1c", "--params", "inf,1,1,1,1"],
    ["oracle", "--problem", "rosenbrock-1c", "--params", "nan,1"],
    ["oracle", "--problem", "rosenbrock-1c", "--params", "1e999,1"],
])
def test_non_finite_params_exit_2_naming_the_flag(argv, tmp_path, capsys):
    if argv[0] == "eval":
        model = tmp_path / "m.model"
        save_model(init_mlp((5, 4, 2), seed=0), str(model))
        argv = argv + ["--model", str(model)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "--params" in err and "finite" in err


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "problem = rosenbrock-1c\n"
        "epochs = 30\n"
        "samples = 80\n"
        "batch_size = 20\n"
        "seed = 5\n"
    )
    parsed = parse_config_file(str(cfg))
    values = {key: value for key, (value, _) in parsed.items()}
    assert values == {
        "problem": "rosenbrock-1c", "epochs": 30, "samples": 80,
        "batch_size": 20, "seed": 5,
    }
    assert parsed["seed"][1] == f"{cfg}:6"


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = rosenbrock-1c\nfrobnicate = 1\n")
    with pytest.raises(UsageError) as info:
        parse_config_file(str(cfg))
    assert "frobnicate" in str(info.value)
    assert "accepted keys" in str(info.value)


def test_config_file_out_of_range_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = rosenbrock-1c\ngamma = 0.5\n")
    assert run(["train", "--config", str(cfg)]) == 2


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = rosenbrock-1c\nepochs = 5000\n")
    out = tmp_path / "m.model"
    code = run(["train", "--config", str(cfg), "--epochs", "10",
                "--samples", "50", "--batch-size", "10", "--out", str(out)])
    assert code == 0  # finishing quickly proves 10 epochs won


def test_env_seed_fallback(tmp_path, monkeypatch):
    a, b = tmp_path / "a.model", tmp_path / "b.model"
    monkeypatch.setenv("PENALEARN_SEED", "11")
    run(["train", "--problem", "rosenbrock-1c", "--out", str(a)] + FAST_TRAIN)
    monkeypatch.delenv("PENALEARN_SEED")
    run(["train", "--problem", "rosenbrock-1c", "--seed", "11", "--out", str(b)]
        + FAST_TRAIN)
    assert a.read_bytes() == b.read_bytes()


def test_flag_seed_beats_env(tmp_path, monkeypatch):
    a, b = tmp_path / "a.model", tmp_path / "b.model"
    monkeypatch.setenv("PENALEARN_SEED", "99")
    run(["train", "--problem", "rosenbrock-1c", "--seed", "11", "--out", str(a)]
        + FAST_TRAIN)
    monkeypatch.delenv("PENALEARN_SEED")
    run(["train", "--problem", "rosenbrock-1c", "--seed", "11", "--out", str(b)]
        + FAST_TRAIN)
    assert a.read_bytes() == b.read_bytes()


def test_invalid_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("PENALEARN_SEED", "not-a-number")
    assert run(["oracle", "--problem", "rosenbrock-1c", "--params", "25,0.3"]) == 2
    assert "PENALEARN_SEED" in capsys.readouterr().err


def test_corrupt_model_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("penalearn-model v1\nnot a real body\n")
    code = run(["eval", "--problem", "rosenbrock-1c", "--model", str(bad),
                "--params", "1,1"])
    assert code == 1
    assert "penalearn:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "bench", "table"])
@pytest.mark.parametrize("body, where, error", [
    ("penalearn-model v1\n2 200000 200000 2\n0.5 0.5\n", 3, "ModelFormatError"),
    ("penalearn-model v2\n2 20 20 2\n", 1, "ModelVersionError"),
    ("penalearn-model v1\n2 0 2\n", 2, "ModelFormatError"),
], ids=["weight_count", "v2_header", "zero_layer_size"])
def test_a_malformed_model_file_exits_1_naming_its_file_and_line(tmp_path, capsys, command,
                                                                 body, where, error):
    bad = tmp_path / "bad.model"
    bad.write_text(body)
    assert run([command, "--problem", "rosenbrock-1c", "--model", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"penalearn: {error}: {bad}:{where}: ")


def test_net_shape_must_match_problem(tmp_path):
    assert run(["train", "--problem", "rosenbrock-1c", "--net-shape", "3,4,2"]) == 2
    assert run(["train", "--problem", "rosenbrock-1c", "--net-shape", "2,4,3"]) == 2


def test_failed_run_leaves_no_partial_output(tmp_path):
    target = tmp_path / "missing-dir" / "m.model"
    code = run(["train", "--problem", "rosenbrock-1c", "--out", str(target)]
               + FAST_TRAIN)
    assert code == 1
    assert not target.exists()
    assert not (tmp_path / "missing-dir").exists()
    # the temp file is written, then cannot replace a directory: it is removed
    (tmp_path / "a-dir").mkdir()
    code = run(["train", "--problem", "rosenbrock-1c", "--out", str(tmp_path / "a-dir")]
               + FAST_TRAIN)
    assert code == 1
    assert [p.name for p in tmp_path.iterdir()] == ["a-dir"]
    assert not any((tmp_path / "a-dir").iterdir())


def _model_with_bad_bias(tmp_path, token):
    """A valid model file whose first bias line (line 4) holds ``token``."""
    path = tmp_path / "m.model"
    save_model(init_mlp((2, 3, 2), seed=1), path)
    lines = path.read_text().splitlines()
    lines[3] = f"0 {token} 0"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "make,exc",
    [
        (lambda _: TrainConfig(beta1=1.5), ConfigError),
        (lambda _: TrainConfig(beta2=0.0), ConfigError),
        (lambda _: TrainConfig(adam_epsilon=0.0), ConfigError),
        (lambda _: TrainConfig(feas_tolerance=-0.1), ConfigError),
        (lambda _: PenaltyConfig(gamma=float("nan")), ConfigError),
        (lambda _: PenaltyConfig(mode="none"), ConfigError),
        (lambda _: OracleConfig(descent_lr=0.0), ConfigError),
        (lambda _: TrainConfig(seed=-1), ConfigError),
        (lambda _: OracleConfig(seed=-1), ConfigError),
        (lambda _: PenaltyConfig(eta=0.0), ConfigError),
        (lambda _: TrainConfig(net_shape=(2, 2)), ConfigError),
        (lambda _: TrainConfig(net_shape=(2, 0, 2)), ConfigError),
        (lambda _: TrainConfig(net_shape=(2, 3.5, 2)), ConfigError),
        (lambda _: TrainConfig(log_every=1.5), ConfigError),
        (lambda _: TrainConfig(normalize_inputs="no"), ConfigError),
        (lambda _: TrainConfig(epochs=2.5), ConfigError),
        (lambda _: TrainConfig(batch_size=2.5), ConfigError),
        (lambda _: TrainConfig(sample_count=100.5), ConfigError),
        (lambda _: TrainConfig(seed=0.5), ConfigError),
        (lambda _: TrainConfig(epochs=True), ConfigError),
        (lambda _: OracleConfig(starts=2.5), ConfigError),
        (lambda _: OracleConfig(grid_points_per_dim=2.5), ConfigError),
        (lambda _: OracleConfig(descent_steps=2.5), ConfigError),
        (lambda d: load_model(_model_with_bad_bias(d, "nan")), ModelFormatError),
        (lambda d: load_model(_model_with_bad_bias(d, "inf")), ModelFormatError),
        (lambda _: OracleConfig(descent_lr=float("inf")), ConfigError),
        (lambda _: OracleConfig(feasible_tol=float("inf")), ConfigError),
        (lambda _: TrainConfig(adam_epsilon=float("inf")), ConfigError),
        (lambda _: TrainConfig(learning_rate=float("inf")), ConfigError),
        (lambda _: TrainConfig(feas_tolerance=float("inf")), ConfigError),
        (lambda _: PenaltyConfig(eta=float("inf")), ConfigError),
        (lambda _: PenaltyConfig(gamma=float("inf")), ConfigError),
        (lambda _: PenaltyConfig(indicator_big=float("inf")), ConfigError),
        (lambda _: PenaltyConfig(eq_tolerance=float("inf")), ConfigError),
        (lambda _: TrainConfig(learning_rate=True), ConfigError),
        (lambda _: TrainConfig(beta1=True), ConfigError),
        (lambda _: PenaltyConfig(eta=True), ConfigError),
        (lambda _: OracleConfig(descent_lr="1"), ConfigError),
        (lambda _: TrainConfig(beta2="0.9"), ConfigError),
        (lambda _: PenaltyConfig(gamma="2"), ConfigError),
        (lambda _: PenaltyConfig(gamma=10**400), ConfigError),  # finite, but not as a float
    ],
    ids=["beta1", "beta2", "adam_epsilon", "feas_tolerance", "gamma_nan",
         "penalty_mode_none", "descent_lr",
         "train_seed", "oracle_seed", "eta_zero", "net_shape_short", "net_shape_zero",
         "net_shape_float", "log_every_float", "normalize_inputs_str", "epochs_float",
         "batch_size_float", "samples_float", "seed_float", "epochs_bool", "starts_float",
         "grid_points_float", "descent_steps_float",
         "model_nan", "model_inf", "descent_lr_inf", "feasible_tol_inf", "adam_epsilon_inf",
         "learning_rate_inf", "feas_tolerance_inf", "eta_inf", "gamma_inf", "indicator_big_inf",
         "eq_tolerance_inf", "learning_rate_bool", "beta1_bool", "eta_bool", "descent_lr_str",
         "beta2_str", "gamma_str", "gamma_huge_int"],
)
def test_library_rejects_what_the_cli_rejects(tmp_path, make, exc):
    with pytest.raises(exc) as info:
        make(tmp_path)
    if exc is ModelFormatError:
        assert info.value.line_number == 4
    else:
        assert isinstance(info.value, ValueError) and info.value.field


def _adam(**settings):
    return AdamState.for_net(init_mlp((2, 3, 2)), **settings)


def _adam_state(**settings):
    return AdamState(np.zeros(3), np.zeros(3), **settings)


_SPEC = make_problem("rosenbrock-1c")


def _spec(**fields):
    return dataclasses.replace(_SPEC, **fields)


@pytest.mark.parametrize("make, field", [
    (lambda: init_mlp((2, 3, 2), seed=-1), "seed"),
    (lambda: init_mlp((2, 3, 2), seed=1.5), "seed"),
    (lambda: init_mlp((2, 3, 2), seed=True), "seed"),
    (lambda: init_mlp((2, 3, 2), seed=(3, -1)), "seed"),
    (lambda: _adam(learning_rate=0.0), "learning_rate"),
    (lambda: _adam(learning_rate=-1e-3), "learning_rate"),
    (lambda: _adam(learning_rate=float("inf")), "learning_rate"),
    (lambda: _adam(beta1=0.0), "beta1"),
    (lambda: _adam(beta1=1.0), "beta1"),
    (lambda: _adam(beta1=float("nan")), "beta1"),
    (lambda: _adam(beta2=1.0), "beta2"),
    (lambda: _adam(beta2=-0.5), "beta2"),
    (lambda: _adam(epsilon=0.0), "epsilon"),
    (lambda: _adam(epsilon=float("nan")), "epsilon"),
    (lambda: solve(_SPEC, [1.0, 0.5], TrainConfig()), "cfg"),
    (lambda: solve(_SPEC, [1.0, 0.5], {"starts": 4}), "cfg"),
    (lambda: grid_scan(_SPEC, [1.0, 0.5], None), "cfg"),
    (lambda: grid_scan(None, [1.0, 0.5]), "spec"),
    (lambda: solve("rosenbrock-1c", [1.0, 0.5]), "spec"),
    (lambda: kkt_residual(None, [1.0, 0.5], [0.0, 0.0], 1e-6), "spec"),
    (lambda: sample_params(None, 3), "spec"),
    (lambda: _adam_state(learning_rate=-1.0), "learning_rate"),
    (lambda: _adam_state(beta1=2.0), "beta1"),
    (lambda: _adam_state(beta2=True), "beta2"),
    (lambda: _adam_state(epsilon=float("nan")), "epsilon"),
    (lambda: TrainConfig(penalty=None), "penalty"),
    (lambda: TrainConfig(penalty={"eta": 1.0}), "penalty"),
    (lambda: _spec(decision_dim=0), "decision_dim"),
    (lambda: _spec(decision_dim="2"), "decision_dim"),
    (lambda: _spec(decision_dim=2.0), "decision_dim"),
    (lambda: _spec(param_dim="2"), "param_dim"),
    (lambda: _spec(param_dim=0, param_ranges=()), "param_dim"),
    (lambda: _spec(param_ranges=((0.0, 30.0), (0.0, float("nan")))), "param_ranges"),
    (lambda: _spec(param_ranges=((float("-inf"), 30.0), (0.0, 1.0))), "param_ranges"),
    (lambda: _spec(param_ranges=((0.0, 30.0), ("0", 1.0))), "param_ranges"),
    (lambda: _spec(param_ranges=((-1e308, 1e308), (0.0, 1.0))), "param_ranges"),
    (lambda: train("x", TrainConfig()), "spec"),
    (lambda: evaluate(init_mlp((2, 3, 2)), "x", np.ones((1, 2))), "spec"),
    (lambda: evaluate("x", _SPEC, np.ones((1, 2))), "net"),
    (lambda: run_benchmark("x", init_mlp((2, 3, 2)), OracleConfig(), np.ones((1, 2))), "spec"),
    (lambda: run_benchmark(_SPEC, "x", OracleConfig(), np.ones((1, 2))), "net"),
    (lambda: Constraint(disk_constraint, float("nan")), "bound"),
    (lambda: Constraint(disk_constraint, "a"), "bound"),
    (lambda: _spec(objective=None), "objective"),
    (lambda: _spec(inequalities=(Constraint(None, 1.0),)), "inequalities"),
    (lambda: _spec(equalities=(Constraint(None, 0.0),)), "equalities"),
], ids=["seed_negative", "seed_float", "seed_bool", "seed_tuple_negative",
        "learning_rate_zero", "learning_rate_negative", "learning_rate_inf", "beta1_zero",
        "beta1_one", "beta1_nan", "beta2_one", "beta2_negative", "epsilon_zero",
        "epsilon_nan", "solve_train_config", "solve_dict", "grid_scan_none",
        "grid_scan_spec_none", "solve_spec_name", "kkt_residual_spec_none",
        "sample_params_spec_none", "adam_state_learning_rate", "adam_state_beta1",
        "adam_state_beta2_bool", "adam_state_epsilon_nan", "train_config_penalty_none",
        "train_config_penalty_dict", "problem_spec_decision_dim_zero",
        "problem_spec_decision_dim_str", "problem_spec_decision_dim_float",
        "problem_spec_param_dim_str", "problem_spec_param_dim_zero",
        "problem_spec_range_nan", "problem_spec_range_inf", "problem_spec_range_str",
        "problem_spec_range_too_wide", "train_spec_str", "evaluate_spec_str",
        "evaluate_net_str", "run_benchmark_spec_str", "run_benchmark_net_str",
        "constraint_bound_nan", "constraint_bound_str", "problem_spec_objective_none",
        "problem_spec_inequality_none", "problem_spec_equality_none"])
def test_library_entry_points_reject_bad_settings_naming_them(make, field):
    with pytest.raises(ConfigError) as info:
        make()
    assert info.value.field == field and field in str(info.value)


def test_library_entry_points_keep_the_settings_they_accept():
    net = init_mlp((2, 3, 2), seed=(3, 1))
    assert net.params.tobytes() == init_mlp((2, 3, 2), seed=[3, 1]).params.tobytes()
    assert init_mlp((2, 3, 2), seed=np.int64(4)).params.tobytes() == \
        init_mlp((2, 3, 2), seed=4).params.tobytes()
    state = _adam(learning_rate=1, beta1=np.float64(0.5), beta2=0.25, epsilon=1e-12)
    settings = (state.learning_rate, state.beta1, state.beta2, state.epsilon)
    assert settings == (1.0, 0.5, 0.25, 1e-12)
    assert all(type(value) is float for value in settings)
    sizes = init_mlp((np.int64(2), 3, np.int32(2))).layer_sizes
    assert sizes == (2, 3, 2) and all(type(s) is int for s in sizes)
    for bound in (1, 1.0, np.float32(1.5), np.int64(-2), np.array(1.0), float("inf"), -np.inf):
        assert Constraint(disk_constraint, bound).bound is bound


@pytest.mark.parametrize("make, field", [
    (lambda: init_mlp((2, 1.5, 2)), "layer_sizes"),
    (lambda: init_mlp((2, True, 2)), "layer_sizes"),
    (lambda: init_mlp((2, "3", 2)), "layer_sizes"),
    (lambda: mac_count((2, 1.5, 2)), "layer_sizes"),
    (lambda: loss_terms_batch(np.zeros((1, 2)), np.ones((1, 2)), _SPEC, None), "cfg"),
    (lambda: train(_SPEC, None), "cfg"),
    (lambda: evaluate(init_mlp((2, 3, 2)), _SPEC, np.ones((1, 2)), cfg="x"), "cfg"),
], ids=["init_mlp_float_size", "init_mlp_bool_size", "init_mlp_str_size", "mac_count_float_size",
        "loss_terms_batch_none", "train_none", "evaluate_str"])
def test_layer_sizes_and_cfg_arguments_are_checked_naming_them(make, field):
    # a size is an integer, as TrainConfig's net_shape is: int() would truncate
    # 1.5 to 1 and take True as 1; a cfg of the wrong type raises no bare AttributeError
    with pytest.raises(ConfigError) as info:
        make()
    assert info.value.field == field and field in str(info.value)


@pytest.mark.parametrize(
    "argv,env,cfg_text,where",
    [
        (["train", "--gamma", "0.5"], None, None, "flag --gamma: key 'gamma'"),
        (["train"], None, "problem = rosenbrock-1c\ngamma = 0.5\n", "run.cfg:2: key 'gamma'"),
        (["train"], "-1", None, "$PENALEARN_SEED: key 'seed'"),
        (["train", "--samples", "100"], None, "problem = rosenbrock-1c\nbatch_size = 500\n",
         "run.cfg:2: key 'batch_size'"),
        (["eval", "--count", "0"], None, None, "flag --count: key 'count'"),
        # a key train does not read is still checked: one file serves every command
        (["train"], None, "problem = rosenbrock-1c\ncount = 0\n", "run.cfg:2: key 'count'"),
        # a real setting must be finite
        (["oracle", "--params", "5,0.1", "--descent-lr", "inf"], None, None,
         "flag --descent-lr: key 'descent_lr'"),
    ],
    ids=["flag", "config_file", "env_seed", "cross_field", "count_flag", "count_config_file",
         "descent_lr_inf"],
)
def test_config_errors_name_key_and_origin(tmp_path, monkeypatch, capsys,
                                           argv, env, cfg_text, where):
    monkeypatch.delenv("PENALEARN_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("PENALEARN_SEED", env)
    command, argv = argv[0], argv[1:]
    if cfg_text is None:
        argv = ["--problem", "rosenbrock-1c"] + argv
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)
        argv = ["--config", str(cfg)] + argv
    assert run([command] + argv) == 2
    assert where in capsys.readouterr().err
