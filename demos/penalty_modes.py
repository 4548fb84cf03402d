"""Why the penalty must be piecewise rather than an indicator.

Part 1 sweeps a single inequality residual through the boundary and prints
the penalty value and derivative for both modes.  The indicator jumps to a
large constant but its derivative is zero everywhere, so a gradient step
never learns anything from it.

Part 2 runs the same training twice, once per mode, and compares the
feasible fraction the net reaches.  About 5 seconds.
"""

import numpy as np

from penalearn import (
    PenaltyConfig,
    TrainConfig,
    ineq_penalty,
    loss_terms_batch,
    make_problem,
    train,
)


def sweep():
    print("residual sweep, eta=1e8, gamma=2 (piecewise) vs big-constant indicator")
    print(f"{'residual':>10} {'piecewise':>12} {'d/dr':>12} {'indicator':>12} {'d/dr':>6}")
    big = PenaltyConfig(mode="indicator").indicator_big
    for r in (-0.5, -0.01, 0.0, 0.01, 0.5):
        v, g = ineq_penalty(r, 1e8, 2.0)
        iv = 0.0 if r <= 0 else big
        print(f"{r:>10.2f} {v:>12.4g} {g:>12.4g} {iv:>12.4g} {0.0:>6.1f}")
    print()


def gradient_contribution():
    spec = make_problem("rosenbrock-1c")
    rng = np.random.default_rng(3)
    X = rng.uniform(-3, 3, size=(200, 2))
    P = np.column_stack([rng.uniform(0, 30, 200), rng.uniform(0, 1, 200)])
    g_ind = loss_terms_batch(X, P, spec, PenaltyConfig(mode="indicator")).grad
    _, g_obj = spec.objective(X, P)
    same = np.array_equal(g_ind, g_obj)
    print(f"indicator gradient equals the bare objective gradient on 200 random points: {same}")
    print()


def ab_training():
    spec = make_problem("rosenbrock-1c")
    for mode in ("piecewise", "indicator"):
        cfg = TrainConfig(epochs=200, seed=0, penalty=PenaltyConfig(mode=mode))
        _, log = train(spec, cfg)
        e = log.final()
        print(f"{mode:>10}: loss {e.mean_loss:>12.5g}, feasible fraction {e.feasible_frac:.3f}")


def main():
    sweep()
    gradient_contribution()
    print("same seed, same net, 200 epochs, only the penalty mode differs:")
    ab_training()


if __name__ == "__main__":
    main()
