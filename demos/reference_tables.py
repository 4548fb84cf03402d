"""Reproduce the reference comparison tables on all four problem families.

For each family this trains a net at the default settings, solves the three
fixed parameter sets with the numerical oracle, and prints the side-by-side
table (published baseline where one exists, oracle, net, violations).  The
three-constraint variants carry a contradictory constraint set on purpose;
their tables come with a warning banner and nonzero violation columns.

Full run takes a couple of minutes; most of it is the two deep-net trainings.
"""

from penalearn import OracleConfig, TrainConfig, make_problem, table_repro, train

FAMILIES = ("rosenbrock-1c", "rosenbrock-3c", "ackley-1c", "ackley-3c")


def main():
    cfg = OracleConfig()
    for name in FAMILIES:
        spec = make_problem(name)
        print(f"=== {name} ===")
        print(f"training ({TrainConfig().epochs} epochs)...", flush=True)
        net, log = train(spec, TrainConfig(seed=0))
        print(f"done in {log.final().elapsed_s:.1f}s, "
              f"feasible fraction {log.final().feasible_frac:.3f}")
        repro = table_repro(spec, net, cfg)
        print(repro.text())
        print()


if __name__ == "__main__":
    main()
