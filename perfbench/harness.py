"""Statistics, quiet-CPU handling and run settings for the workloads."""

from __future__ import annotations

import math
import os
import platform
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns, sleep

import numpy as np

# Percentiles the tail rule may choose from, in tenths of a percent.
TAIL_LADDER_TENTHS = (500, 900, 990, 999)
MIN_BEYOND = 10


def tail_percentile(n: int, cap: float = 99.9):
    """Highest percentile (at most ``cap``) with at least 10 of ``n`` samples beyond it.

    Returns None when even the median has fewer than 10 samples above it.
    """
    best = None
    for tenths in TAIL_LADDER_TENTHS:
        if tenths <= round(cap * 10) and n * (1000 - tenths) // 1000 >= MIN_BEYOND:
            best = tenths / 10
    return best


def samples_beyond(n: int, pct: float) -> int:
    """Number of the ``n`` samples that lie above the ``pct`` percentile."""
    return n * (1000 - round(pct * 10)) // 1000


class Latency:
    """Median and rule-chosen tail percentile of a list of durations."""

    def __init__(self, samples, cap: float):
        values = np.asarray(samples, dtype=float)
        self.n = int(values.size)
        self.p50 = float(np.median(values)) if self.n else float("nan")
        self.tail_pct = tail_percentile(self.n, cap)
        self.tail = (
            float(np.percentile(values, self.tail_pct))
            if self.tail_pct is not None
            else float("nan")
        )

    def describe(self) -> str:
        if self.tail_pct is None:
            return f"n={self.n}, too few samples for a tail percentile"
        beyond = samples_beyond(self.n, self.tail_pct)
        return f"p{self.tail_pct:g} over n={self.n}, {beyond} samples beyond it"


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


_PROBE_W = np.linspace(-1.0, 1.0, 400).reshape(20, 20)
_PROBE_X = np.ones((1, 20))
_PROBE_BIG = np.linspace(-1.0, 1.0, 1 << 15)


def machine_probe_ns(calls: int = 100, repeats: int = 3) -> int:
    """Fastest of ``repeats`` timings of a fixed run of numpy calls.

    A loop of tiny calls and one 256 KiB pass, so that both call-bound and
    cache-bound slowdowns show.
    """
    best = None
    for _ in range(repeats):
        t0 = perf_counter_ns()
        for _ in range(calls):
            np.tanh(_PROBE_X @ _PROBE_W)
        np.tanh(_PROBE_BIG).sum()
        dt = perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


class Cpus:
    """Keeps this process on whichever allowed CPU other tenants disturb least.

    On a shared machine other tenants' threads slowed this process by about
    1.7x to 2x, on one CPU or both, in spells mostly under a second long.
    ``pin()`` probes each allowed CPU, pins the process to the fastest, and
    while even that one runs the probe over ``SLOW`` times the fastest probe
    seen so far, waits ``PAUSE_S`` and probes again, for at most ``MAX_WAIT_S``
    per call and ``RUN_WAIT_S`` in all, so that a busy machine cannot stretch
    a run without end.  ``release()`` restores the affinity the process
    started with.
    """

    SLOW = 1.3
    PAUSE_S = 0.002
    MAX_WAIT_S = 0.5
    RUN_WAIT_S = 10.0

    def __init__(self):
        self.allowed = tuple(sorted(os.sched_getaffinity(0)))
        self.fastest = None
        self.waited_s = 0.0
        self._between = None  # [fn, calls left, gap in s, time next due]

    def between(self, fn, count: int, gap_s: float):
        """Call ``fn`` ``count`` times, each at the start of a ``pin()`` at least
        ``gap_s`` after the previous call, so that it falls between timed units."""
        self._between = [fn, count, gap_s, 0.0]

    def finish_between(self):
        """Make the calls ``between`` still owes."""
        while self._between and self._between[1] > 0:
            self._call_between()

    def _call_between(self):
        task = self._between
        task[1] -= 1
        task[0]()
        task[3] = perf_counter() + task[2]

    def _probe_best(self):
        best_cpu, best = None, None
        for cpu in self.allowed:
            if len(self.allowed) > 1:
                os.sched_setaffinity(0, {cpu})
            probe = machine_probe_ns()
            if best is None or probe < best:
                best_cpu, best = cpu, probe
        if len(self.allowed) > 1:
            os.sched_setaffinity(0, {best_cpu})
        self.fastest = best if self.fastest is None else min(self.fastest, best)
        return best

    def pin(self) -> int:
        """Pin to the quietest CPU; returns its probe time in ns."""
        task = self._between
        if task and task[1] > 0 and perf_counter() >= task[3]:
            self._call_between()
        best = self._probe_best()
        t0 = perf_counter()
        while (best > self.SLOW * self.fastest and perf_counter() - t0 < self.MAX_WAIT_S
               and self.waited_s + perf_counter() - t0 < self.RUN_WAIT_S):
            sleep(self.PAUSE_S)
            best = self._probe_best()
        self.waited_s += perf_counter() - t0
        return best

    def release(self):
        os.sched_setaffinity(0, set(self.allowed))


class Windows:
    """Timed work in windows, each started on a quiet CPU by ``Cpus.pin``.

    Every window of one kind does the same work, so the slower ones differ
    mostly in how much other tenants disturbed them.  ``fastest()`` keeps
    the tenth with the lowest ``key``, so a run's figures stay steady while
    up to nine tenths of its windows are disturbed.
    """

    KEEP = 1 / 10

    def __init__(self, cpus: Cpus):
        self.items: list = []
        self._cpus = cpus
        cpus.pin()

    def add(self, item):
        self.items.append(item)
        self._cpus.pin()

    def fastest(self, key=None) -> list:
        keep = max(1, math.ceil(self.KEEP * len(self.items)))
        return sorted(self.items, key=key)[:keep]


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for lib_path in sorted(p for p in libs if p.startswith("/")):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str:
    """Commit hash read from ``root/.git``; "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_settings(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The machine and run settings recorded with every result."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(root),
    }
