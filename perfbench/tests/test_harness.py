"""The tail-percentile rule: the highest percentile with 10 samples beyond it."""

import numpy as np
import pytest

from harness import Latency, samples_beyond, tail_percentile


@pytest.mark.parametrize(
    "n, pct",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_rule_picks_highest_percentile_with_ten_beyond(n, pct):
    assert tail_percentile(n) == pct
    if pct is not None:
        assert samples_beyond(n, pct) >= 10


def test_cap_limits_the_choice():
    assert tail_percentile(10000, cap=90.0) == 90.0
    assert tail_percentile(10000, cap=99.0) == 99.0


def test_ten_samples_really_lie_beyond_the_reported_value():
    values = np.arange(1.0, 101.0)
    lat = Latency(values, cap=99.9)
    assert lat.tail_pct == 90.0
    assert int((values > lat.tail).sum()) == 10
    assert lat.p50 == 50.5


def test_description_prints_the_counts():
    text = Latency(np.ones(100), cap=99.9).describe()
    assert "p90" in text and "n=100" in text and "10 samples beyond" in text
    assert "too few" in Latency(np.ones(5), cap=99.9).describe()


def test_pin_stops_waiting_once_the_run_budget_is_spent(monkeypatch):
    import harness

    probes = iter([100] + [1000] * 1_000_000)
    monkeypatch.setattr(harness, "machine_probe_ns", lambda: next(probes))
    cpus = harness.Cpus()
    cpus.MAX_WAIT_S, cpus.RUN_WAIT_S = 0.03, 0.05
    try:
        for _ in range(5):
            cpus.pin()
    finally:
        cpus.release()
    assert cpus.fastest == 100
    assert 0.05 <= cpus.waited_s < 0.05 + 0.02


def test_between_calls_wait_for_their_gap_and_finish_makes_the_rest(monkeypatch):
    import harness

    monkeypatch.setattr(harness, "machine_probe_ns", lambda: 100)
    cpus = harness.Cpus()
    calls = []
    cpus.between(lambda: calls.append(len(calls)), 3, 3600.0)
    try:
        for _ in range(5):
            cpus.pin()
        assert calls == [0]  # the first at the first pin; the next is an hour away
        cpus.finish_between()
        assert calls == [0, 1, 2]
        cpus.pin()
        assert calls == [0, 1, 2]
    finally:
        cpus.release()
