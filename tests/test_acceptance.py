"""Acceptance gate: nine criteria, one printed pass/fail line each.

Run with ``pytest -rA`` (the default addopts) to see every verdict line in
the summary.  Tolerances are pinned to the stated acceptance bars, not to
what the implementation happens to achieve.
"""

import os
import time
import zlib

import numpy as np

from penalearn import (
    Mlp,
    OracleConfig,
    PenaltyConfig,
    TrainConfig,
    eq_penalty,
    ineq_penalty,
    init_mlp,
    loss_terms_batch,
    mac_count,
    make_problem,
    mlp_backward,
    mlp_forward,
    problem_names,
    run_benchmark,
    sample_params,
    solve,
    train,
)
from penalearn.cli import main as cli_main

ROSENBROCK_CASES = (
    ((1.0, 1.0), (0.8082, 0.5889)),
    ((5.0, 0.1), (0.1000, 0.0100)),
    ((25.0, 0.3), (0.3000, 0.0900)),
)
ACKLEY_CASES = (
    (20.0, 0.2, 0.05, 0.05, 20.0),
    (20.0, 0.2, 0.5, 0.5, 20.0),
    (20.0, 0.05, 0.5, 0.5, 20.0),
)

SPEEDUP_THRESHOLD = float(os.environ.get("PENALEARN_SPEEDUP_THRESHOLD", "10"))


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity through net + penalty + objective


def _chain_loss_and_grads(net, p_row, spec, pcfg):
    out, trace = mlp_forward(net, p_row)
    terms = loss_terms_batch(out, p_row, spec, pcfg)
    grads = mlp_backward(net, trace, terms.grad)
    return float(terms.loss[0]), grads, out[0]


def _perturbed(net, direction, h):
    return Mlp(net.layer_sizes, net.params + h * direction)


def _smooth_config(spec, net, p_row, pcfg):
    """Exclude documented non-smooth points: constraint kinks, ackley origin."""
    out, _ = mlp_forward(net, p_row)
    x = out[0]
    if spec.name.startswith("ackley") and np.linalg.norm(x) < 1e-2:
        return False
    ce = spec.constraint_eval(out, p_row)
    if np.any(np.abs(ce.values) < 1e-3):
        return False
    return True


def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    per_problem = 100
    worst = 0.0
    for name in problem_names():
        spec = make_problem(name)
        d, k = spec.param_dim, spec.decision_dim
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        lows = np.array([r[0] for r in spec.param_ranges])
        highs = np.array([r[1] for r in spec.param_ranges])
        checked = attempts = 0
        while checked < per_problem:
            attempts += 1
            assert attempts < 50 * per_problem, f"cannot find smooth configs for {name}"
            shape = (d, 6, k) if attempts % 2 else (d, 8, 6, k)
            net = init_mlp(shape, seed=int(rng.integers(2**31)))
            p_row = (lows + (highs - lows) * rng.random(d))[None, :]
            pcfg = PenaltyConfig(
                eta=float(rng.choice([10.0, 1e8])),
                gamma=float(rng.choice([2.0, 3.0])),
            )
            if not _smooth_config(spec, net, p_row, pcfg):
                continue
            _, grads, _ = _chain_loss_and_grads(net, p_row, spec, pcfg)
            # every weight, then every bias, packed in model-file order
            ws = [rng.normal(size=w.shape) for w in net.weights]
            bs = [rng.normal(size=b.shape) for b in net.biases]
            direction = np.concatenate([a.ravel() for pair in zip(ws, bs) for a in pair])
            analytic = float(grads @ direction)
            h = 1e-6
            lp, _, _ = _chain_loss_and_grads(_perturbed(net, direction, h), p_row, spec, pcfg)
            lm, _, _ = _chain_loss_and_grads(_perturbed(net, direction, -h), p_row, spec, pcfg)
            fd = (lp - lm) / (2 * h)
            rel = abs(fd - analytic) / max(abs(analytic), abs(fd), 1e-12)
            worst = max(worst, rel)
            assert rel < 1e-5, f"{name}: rel err {rel:.2e} at attempt {attempts}"
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    print(
        f"criterion 1 (gradient fidelity, 100 configs x {len(problem_names())} "
        f"problems, worst rel err {worst:.2e}, {elapsed:.1f}s): PASS"
    )


# ---------------------------------------------------------------------------
# criteria 2-4: table reproductions and feasibility at scale


def test_criterion_2_rosenbrock_table(rosenbrock_model):
    spec, net, log = rosenbrock_model
    assert log.final().elapsed_s <= 600.0, "training exceeded the desk-scale budget"
    for params, ipm in ROSENBROCK_CASES:
        p = np.array(params)
        sol = solve(spec, p)
        assert np.linalg.norm(sol.x - np.array(ipm)) <= 1e-2, (
            f"oracle off the baseline at {params}: {sol.x}"
        )
        x_dnn = mlp_forward(net, p[None, :])[0][0]
        dist = np.linalg.norm(x_dnn - sol.x)
        assert dist <= 0.15, f"DNN {dist:.3f} from oracle at {params}"
    print(
        f"criterion 2 (rosenbrock-1c table, oracle within 1e-2 of baseline, "
        f"DNN within 0.15 of oracle, training {log.final().elapsed_s:.0f}s): PASS"
    )


def test_criterion_3_ackley_table(ackley_model):
    spec, net, _ = ackley_model
    cfg = OracleConfig()
    cell = 12.0 / (cfg.grid_points_per_dim - 1)
    worst_dnn = 0.0
    for params in ACKLEY_CASES:
        p = np.array(params)
        x_dnn = mlp_forward(net, p[None, :])[0][0]
        r_dnn = np.linalg.norm(x_dnn)
        worst_dnn = max(worst_dnn, r_dnn)
        assert r_dnn <= 1e-2, f"DNN radius {r_dnn:.2e} at {params}"
        sol = solve(spec, p, cfg)
        assert np.linalg.norm(sol.x) <= cell, f"oracle radius {np.linalg.norm(sol.x):.2e}"
    stretch = "reached" if worst_dnn <= 1e-4 else "not reached"
    print(
        f"criterion 3 (ackley-1c table, DNN radius <= 1e-2, oracle within one "
        f"grid cell; published-scale 1e-4 accuracy {stretch}, worst "
        f"{worst_dnn:.2e}): PASS"
    )


def test_criterion_4_feasibility_at_scale(rosenbrock_model, ackley_model):
    fractions = {}
    for spec, net, _ in (rosenbrock_model, ackley_model):
        fresh = sample_params(spec, 1000, seed=2024)
        out, _ = mlp_forward(net, fresh)
        ce = spec.constraint_eval(out, fresh)
        worst = np.maximum(ce.values.max(axis=1), 0.0)
        frac = float(np.mean(worst <= 0.1))
        fractions[spec.name] = frac
        assert frac >= 0.95, f"{spec.name}: only {frac:.1%} within violation 0.1"
    detail = ", ".join(f"{k} {v:.1%}" for k, v in fractions.items())
    print(f"criterion 4 (feasibility on 1000 fresh instances: {detail}): PASS")


# ---------------------------------------------------------------------------
# criterion 5: indicator-penalty pathology


def test_criterion_5_indicator_pathology():
    spec = make_problem("rosenbrock-1c")
    rng = np.random.default_rng(55)
    X = rng.uniform(-3, 3, size=(500, 2))
    P = np.column_stack([rng.uniform(0, 30, 500), rng.uniform(0, 1, 500)])
    grad_ind = loss_terms_batch(X, P, spec, PenaltyConfig(mode="indicator")).grad
    _, grad_obj = spec.objective(X, P)
    assert np.array_equal(grad_ind, grad_obj), "indicator added gradient signal"

    cfg = dict(epochs=200, seed=0)
    _, log_piece = train(spec, TrainConfig(penalty=PenaltyConfig(mode="piecewise"), **cfg))
    _, log_ind = train(spec, TrainConfig(penalty=PenaltyConfig(mode="indicator"), **cfg))
    f_piece = log_piece.final().feasible_frac
    f_ind = log_ind.final().feasible_frac
    assert f_ind <= f_piece, f"indicator {f_ind:.3f} beat piecewise {f_piece:.3f}"
    print(
        f"criterion 5 (indicator pathology: zero gradient contribution exact; "
        f"A/B feasibility {f_ind:.3f} <= {f_piece:.3f}): PASS"
    )


# ---------------------------------------------------------------------------
# criterion 6: complexity estimator


def test_criterion_6_mac_count():
    assert mac_count((2, 20, 20, 2)) == 480
    assert mac_count((2, 10, 20, 20, 20, 10, 2)) == 1240
    print("criterion 6 (mac_count 480 and 1240, exact): PASS")


# ---------------------------------------------------------------------------
# criterion 7: speedup property on every registry problem


def test_criterion_7_speedup(rosenbrock_model, ackley_model):
    models = {
        "rosenbrock-1c": rosenbrock_model[1],
        "ackley-1c": ackley_model[1],
    }
    quick = dict(epochs=60, sample_count=200, batch_size=50, seed=0)
    for name in ("rosenbrock-3c", "ackley-3c"):
        net, _ = train(make_problem(name), TrainConfig(**quick))
        models[name] = net

    speedups = {}
    for name in problem_names():
        spec = make_problem(name)
        params = sample_params(spec, 6, seed=909)
        report = run_benchmark(spec, models[name], OracleConfig(), params)
        a = report.aggregates
        assert a.failure_count == 0, f"{name}: oracle failed on {a.failure_count} rows"
        speedups[name] = a.speedup
        assert a.speedup >= SPEEDUP_THRESHOLD, (
            f"{name}: speedup {a.speedup:.1f}x below {SPEEDUP_THRESHOLD}x"
        )
    detail = ", ".join(f"{k} {v:.0f}x" for k, v in speedups.items())
    print(
        f"criterion 7 (median speedup >= {SPEEDUP_THRESHOLD:.0f}x on every "
        f"problem: {detail}): PASS"
    )


# ---------------------------------------------------------------------------
# criterion 8: byte-level determinism through the CLI


def _strip_columns(csv_text, drop_names):
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    keep = [i for i, h in enumerate(header) if h not in drop_names]
    out = [",".join(header[i] for i in keep)]
    for line in lines[1:]:
        if line.startswith("#"):
            if any(f"{name}=" in line for name in drop_names + ("speedup",)):
                continue
            out.append(line)
        else:
            cells = line.split(",")
            out.append(",".join(cells[i] for i in keep))
    return "\n".join(out)


def test_criterion_8_determinism(tmp_path):
    argv_common = [
        "--problem", "rosenbrock-1c", "--seed", "13", "--epochs", "40",
        "--samples", "80", "--batch-size", "20", "--log-every", "20",
    ]
    paths = {}
    for tag in ("a", "b"):
        model = tmp_path / f"{tag}.model"
        assert cli_main(["train", "--out", str(model)] + argv_common) == 0
        bench = tmp_path / f"{tag}.bench.csv"
        assert cli_main([
            "bench", "--problem", "rosenbrock-1c", "--seed", "13",
            "--model", str(model), "--count", "2", "--out", str(bench),
        ]) == 0
        ev = tmp_path / f"{tag}.eval.csv"
        assert cli_main([
            "eval", "--problem", "rosenbrock-1c", "--seed", "13",
            "--model", str(model), "--count", "3", "--out", str(ev),
        ]) == 0
        paths[tag] = (model, tmp_path / f"{tag}.trainlog.csv", bench, ev)

    ma, la, ba, ea = paths["a"]
    mb, lb, bb, eb = paths["b"]
    assert ma.read_bytes() == mb.read_bytes(), "model files differ"
    strip = lambda p, cols: _strip_columns(p.read_text(), cols)
    assert strip(la, ("elapsed_s",)) == strip(lb, ("elapsed_s",)), "train logs differ"
    tcols = ("t_fwd_ns", "t_oracle_ns", "median_t_fwd_ns", "median_t_oracle_ns")
    assert strip(ba, tcols) == strip(bb, tcols), "bench reports differ"
    assert strip(ea, ("t_fwd_ns",)) == strip(eb, ("t_fwd_ns",)), "eval reports differ"
    print(
        "criterion 8 (determinism: byte-identical models, identical CSVs "
        "after dropping timing columns): PASS"
    )


# ---------------------------------------------------------------------------
# criterion 9: penalty algebra


def test_criterion_9_penalty_algebra():
    spec = make_problem("rosenbrock-1c")
    cfg = PenaltyConfig()
    rng = np.random.default_rng(99)

    X = rng.uniform(-3, 3, size=(400, 2))
    P = np.column_stack([rng.uniform(0, 30, 400), rng.uniform(0, 1, 400)])
    omega = loss_terms_batch(X, P, spec, cfg).penalty
    assert np.all(omega >= 0.0), "penalty went negative"

    inside = 0.95 * np.sqrt(rng.random(200))
    theta = 2 * np.pi * rng.random(200)
    Xf = np.column_stack([inside * np.cos(theta), inside * np.sin(theta)])
    for i in range(200):
        omega_i = loss_terms_batch(Xf[i:i + 1], P[i:i + 1], spec, cfg).penalty
        assert omega_i[0] == 0.0

    eta = 1e8
    for eps in (1e-6, 1e-9):
        v_eps, _ = ineq_penalty(eps, eta, 2.0)
        v0, _ = ineq_penalty(0.0, eta, 2.0)
        assert abs(v_eps - v0) <= eta * eps**2

    r = np.abs(rng.normal(size=300)) + 1e-6
    v1, _ = ineq_penalty(r, eta, 2.0)
    v2, _ = ineq_penalty(r, 2 * eta, 2.0)
    assert np.array_equal(v2, 2.0 * v1), "eta doubling not exact (ineq)"
    e1, _ = eq_penalty(r, eta, 2.0)
    e2, _ = eq_penalty(r, 2 * eta, 2.0)
    assert np.array_equal(e2, 2.0 * e1), "eta doubling not exact (eq)"
    print(
        "criterion 9 (penalty algebra: nonnegative, zero on feasible, "
        "boundary-continuous, eta-doubling exact): PASS"
    )
