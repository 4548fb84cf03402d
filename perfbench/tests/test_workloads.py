"""Instance ranges of the oracle workload and the fastest-window rule."""

import numpy as np

from harness import Windows
from workloads import Oracle, stratified_grids


class _NoPin:
    def pin(self):
        return 0


def test_oracle_instances_stay_at_or_below_c2_max(tmp_path):
    wl = Oracle()
    st = wl.setup(7, tmp_path)
    assert st.ranges == ((0.0, 30.0), (0.0, wl.C2_MAX))
    grid = next(stratified_grids(st.ranges, 7, wl.GRID))
    P = np.concatenate(grid)
    assert P.shape == (wl.GRID * wl.GRID, 2)
    assert P[:, 1].max() <= wl.C2_MAX and P[:, 1].min() >= 0.0
    assert all(c2 > wl.C2_MAX for _, c2 in wl.DEFECT_CASES)


def test_fastest_keeps_the_lowest_tenth_rounded_up():
    w = Windows(_NoPin())
    for v in range(25, 0, -1):
        w.add(v)
    assert w.fastest() == [1, 2, 3]
    w = Windows(_NoPin())
    w.add((5, "a"))
    assert w.fastest(key=lambda x: x[0]) == [(5, "a")]
